package tasks

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sched"
)

// This file implements the reductions around weak symmetry breaking
// discussed in Sections 5 and 6 of the paper:
//
//   - WSB from (2n-2)-renaming (one direction of the known equivalence);
//   - (2n-2)-renaming from WSB (the other direction, via a WSB split and
//     two mirrored *adaptive* renaming instances);
//   - k-WSB from 2(n-k)-renaming without further communication
//     (Corollary 4);
//   - WSB from any <n,m,1,u>-GSB task by reducing the output modulo 2
//     (the reduction used in the proof of Theorem 10).

// WSBFromRenaming solves WSB (<n,2,1,n-1>-GSB) given any solver for
// (2n-2)-renaming: decide 1 if the new name is at most n-1, else 2.
// Pigeonhole on distinct names in [1..2n-2] guarantees both values are
// decided: n distinct names cannot all lie in [1..n-1] (only n-1 names)
// nor all in [n..2n-2] (only n-1 names).
type WSBFromRenaming struct {
	n       int
	renamer Solver
}

// NewWSBFromRenaming wraps a (2n-2)-renaming solver.
func NewWSBFromRenaming(n int, renamer Solver) *WSBFromRenaming {
	return &WSBFromRenaming{n: n, renamer: renamer}
}

// Solve implements Solver.
func (w *WSBFromRenaming) Solve(p *sched.Proc, id int) int {
	name := w.renamer.Solve(p, id)
	if name < 1 || name > 2*w.n-2 {
		panic(fmt.Sprintf("tasks: renamer produced %d outside [1..%d]", name, 2*w.n-2))
	}
	if name <= w.n-1 {
		return 1
	}
	return 2
}

// RenamingFromWSB solves (2n-2)-renaming (<n,2n-2,0,1>-GSB) in
// ASM_{n,n-1}[WSB]: processes first split into two groups with a WSB
// object (so each group has between 1 and n-1 members), then each group
// runs its own adaptive snapshot renaming. The 1-group takes names from
// the bottom of [1..2n-2] upward; the 2-group takes names from the top
// downward (name 2n-1-a for adaptive name a). With p1 and p2 = p - p1
// participants per group, bottom names reach at most 2*p1-1 and top names
// reach down to 2n-2*p2 > 2*p1-1, so the ranges never collide.
type RenamingFromWSB struct {
	n      int
	wsb    *mem.TaskBox
	bottom *SnapshotRenaming
	top    *SnapshotRenaming
}

// NewRenamingFromWSB allocates the reduction; wsb must solve WSB for the
// same n.
func NewRenamingFromWSB(name string, n int, wsb *mem.TaskBox) *RenamingFromWSB {
	spec := wsb.Spec()
	if spec.N() != n || spec.M() != 2 {
		panic(fmt.Sprintf("tasks: WSB object solves %v, want WSB for n=%d", spec, n))
	}
	return &RenamingFromWSB{
		n:      n,
		wsb:    wsb,
		bottom: NewSnapshotRenaming(mem.JoinName(name, ".bottom"), n),
		top:    NewSnapshotRenaming(mem.JoinName(name, ".top"), n),
	}
}

// Solve implements Solver.
func (r *RenamingFromWSB) Solve(p *sched.Proc, id int) int {
	if r.wsb.Invoke(p) == 1 {
		return r.bottom.Solve(p, id)
	}
	return 2*r.n - 1 - r.top.Solve(p, id)
}

// KWSBFromRenaming solves k-WSB (<n,2,k,n-k>-GSB) from a 2(n-k)-renaming
// solver with no additional communication (Corollary 4): decide 1 iff the
// new name is at most n-k. Distinct names in [1..2(n-k)] force at least k
// and at most n-k processes on each side.
type KWSBFromRenaming struct {
	n, k    int
	renamer Solver
}

// NewKWSBFromRenaming wraps a 2(n-k)-renaming solver; requires k <= n/2.
func NewKWSBFromRenaming(n, k int, renamer Solver) *KWSBFromRenaming {
	if k < 1 || 2*k > n {
		panic(fmt.Sprintf("tasks: k-WSB needs 1 <= k <= n/2, got k=%d n=%d", k, n))
	}
	return &KWSBFromRenaming{n: n, k: k, renamer: renamer}
}

// Solve implements Solver.
func (w *KWSBFromRenaming) Solve(p *sched.Proc, id int) int {
	name := w.renamer.Solve(p, id)
	if name < 1 || name > 2*(w.n-w.k) {
		panic(fmt.Sprintf("tasks: renamer produced %d outside [1..%d]", name, 2*(w.n-w.k)))
	}
	if name <= w.n-w.k {
		return 1
	}
	return 2
}

// WSBFromSlotTask solves WSB from any <n,m,1,u>-GSB solver by reducing
// the decided value modulo 2 (the reduction in the proof of Theorem 10).
// Because every value in [1..m] is decided at least once and m >= 2, both
// parities occur, hence not all processes decide the same binary value.
type WSBFromSlotTask struct {
	inner Solver
	m     int
}

// NewWSBFromSlotTask wraps an <n,m,1,u>-GSB solver with m >= 2. The
// reduction is sound because values 1 and 2 are each decided at least
// once and have different parities, so both binary outputs occur.
func NewWSBFromSlotTask(m int, inner Solver) *WSBFromSlotTask {
	if m < 2 {
		panic(fmt.Sprintf("tasks: WSB-from-slot reduction needs m >= 2, got %d", m))
	}
	return &WSBFromSlotTask{inner: inner, m: m}
}

// Solve implements Solver.
func (w *WSBFromSlotTask) Solve(p *sched.Proc, id int) int {
	return (w.inner.Solve(p, id) % 2) + 1
}
