package tasks

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sched"
)

// SnapshotRenaming is the classic snapshot-based renaming protocol of
// Attiya, Bar-Noy, Dolev, Peleg and Reischuk (JACM 1990), in its
// shared-memory snapshot formulation: a process repeatedly publishes a
// name proposal, takes a snapshot, and on conflict re-proposes the r-th
// smallest free name, where r is the rank of its identity among the
// participants it sees.
//
// The protocol is wait-free and *adaptive*: with p participants, decided
// names lie in [1..2p-1] (rank r <= p, at most p-1 names occupied by
// others, so the r-th free name is at most (p-1)+p = 2p-1). With all n
// processes participating it solves (2n-1)-renaming, i.e. the
// <n,2n-1,0,1>-GSB task; it is also the adaptive building block of the
// WSB -> (2n-2)-renaming reduction.
type SnapshotRenaming struct {
	state *mem.Array[renameCell]
}

type renameCell struct {
	id   int
	prop int // current name proposal; 0 = none yet
}

// NewSnapshotRenaming allocates the protocol's shared state for n
// processes.
func NewSnapshotRenaming(name string, n int) *SnapshotRenaming {
	return &SnapshotRenaming{state: mem.NewArray[renameCell](name, n)}
}

// Solve implements Solver. It returns a name distinct from every other
// participant's, in [1..2p-1] where p is the number of participants.
func (r *SnapshotRenaming) Solve(p *sched.Proc, id int) int {
	prop := 1
	for {
		r.state.Write(p, renameCell{id: id, prop: prop})
		cells, oks := r.state.Snapshot(p)

		conflict := false
		for j := range cells {
			if j != p.Index() && oks[j] && cells[j].prop == prop {
				conflict = true
				break
			}
		}
		if !conflict {
			return prop
		}

		// Rank of my identity among all participants seen (1-based; my
		// own cell is among them, and identities are distinct).
		rank := 1
		for j := range cells {
			if oks[j] && cells[j].id < id {
				rank++
			}
		}
		// r-th smallest positive integer not proposed by anyone else.
		free := 0
		for name := 1; ; name++ {
			if !proposedByOther(cells, oks, p.Index(), name) {
				free++
				if free == rank {
					prop = name
					break
				}
			}
		}
	}
}

// proposedByOther reports whether a participant other than me currently
// proposes name.
func proposedByOther(cells []renameCell, oks []bool, me, name int) bool {
	for j := range cells {
		if j != me && oks[j] && cells[j].prop == name {
			return true
		}
	}
	return false
}

// Direction is a splitter outcome.
type Direction int

// Splitter outcomes: at most one process stops at a splitter, and if k
// processes enter, at most k-1 go right and at most k-1 go down.
const (
	Stop Direction = iota
	Right
	Down
)

// String renders the direction.
func (d Direction) String() string {
	switch d {
	case Stop:
		return "stop"
	case Right:
		return "right"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Splitter is the Moir-Anderson wait-free splitter built from two
// multi-writer registers.
type Splitter struct {
	x *mem.Reg[int]
	y *mem.Reg[bool]
}

// NewSplitter allocates a splitter.
func NewSplitter(name string) *Splitter {
	return &Splitter{x: mem.NewReg[int](mem.JoinName(name, ".x")), y: mem.NewReg[bool](mem.JoinName(name, ".y"))}
}

// Split runs the splitter for the calling process, identified by id
// (ids must be distinct and non-zero).
func (s *Splitter) Split(p *sched.Proc, id int) Direction {
	s.x.Write(p, id)
	if closed, _ := s.y.Read(p); closed {
		return Right
	}
	s.y.Write(p, true)
	if x, _ := s.x.Read(p); x == id {
		return Stop
	}
	return Down
}

// GridRenaming is the Moir-Anderson renaming grid: an (n x n) triangular
// grid of splitters. A process starts at (0,0), moves right or down per
// splitter outcome, and decides the grid position's name when it stops.
// At most n-1 moves can occur, so every process stops within the triangle
// r+c <= n-1, yielding unique names in [1..n(n+1)/2]. It is the baseline
// renaming algorithm against which the 2n-1 snapshot protocol is compared
// in the benchmarks.
type GridRenaming struct {
	n         int
	splitters map[[2]int]*Splitter
}

// NewGridRenaming allocates the triangular splitter grid for n processes.
func NewGridRenaming(name string, n int) *GridRenaming {
	g := &GridRenaming{n: n, splitters: map[[2]int]*Splitter{}}
	for r := 0; r < n; r++ {
		for c := 0; r+c < n; c++ {
			g.splitters[[2]int{r, c}] = NewSplitter(fmt.Sprintf("%s[%d,%d]", name, r, c))
		}
	}
	return g
}

// NameSpace returns the size of the grid's name space, n(n+1)/2.
func (g *GridRenaming) NameSpace() int { return g.n * (g.n + 1) / 2 }

// Solve implements Solver: it returns the diagonal index of the splitter
// at which the process stopped (names in [1..n(n+1)/2]).
func (g *GridRenaming) Solve(p *sched.Proc, id int) int {
	r, c := 0, 0
	for {
		sp, ok := g.splitters[[2]int{r, c}]
		if !ok {
			panic(fmt.Sprintf("tasks: grid walk escaped the triangle at (%d,%d): more than %d processes?", r, c, g.n))
		}
		switch sp.Split(p, id) {
		case Stop:
			d := r + c
			return d*(d+1)/2 + c + 1
		case Right:
			c++
		case Down:
			r++
		}
	}
}
