package tasks

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sched"
)

// This file implements perfect renaming — the <n,n,1,1>-GSB task that
// Theorem 8 proves universal — in enriched models ASM_{n,n-1}[T]:
// from a fetch&increment object and from a row of test-and-set objects.
// Perfect renaming is not wait-free solvable from registers alone
// (Corollary 5), so some oracle object is necessary.

// FetchIncRenaming solves perfect renaming in ASM[fetch&inc]: the k-th
// invoker gets name k.
type FetchIncRenaming struct {
	counter *mem.FetchInc
	n       int
}

// NewFetchIncRenaming allocates the protocol for n processes.
func NewFetchIncRenaming(name string, n int) *FetchIncRenaming {
	return &FetchIncRenaming{counter: mem.NewFetchInc(name), n: n}
}

// Solve implements Solver; the identity is unused (the object itself
// breaks the symmetry).
func (f *FetchIncRenaming) Solve(p *sched.Proc, _ int) int {
	name := f.counter.FetchInc(p) + 1
	if name > f.n {
		panic(fmt.Sprintf("tasks: fetch&inc issued name %d beyond n=%d", name, f.n))
	}
	return name
}

// TASRenaming solves perfect renaming in ASM[test&set]: a row of n
// one-shot test-and-set objects; a process claims the first object it
// wins. A process loses object k only to the unique winner of k, and
// there are at most n-1 other processes, so everyone wins some object in
// [1..n].
type TASRenaming struct {
	row []mem.TAS
}

// NewTASRenaming allocates the row of n test-and-set objects, named
// name[1] .. name[n].
func NewTASRenaming(name string, n int) *TASRenaming {
	return &TASRenaming{row: mem.NewTASRow(name, n)}
}

// Solve implements Solver.
func (t *TASRenaming) Solve(p *sched.Proc, _ int) int {
	for k := range t.row {
		if t.row[k].TestAndSet(p) {
			return k + 1
		}
	}
	panic("tasks: process lost all n test-and-set objects; impossible with n processes")
}

// BoxSolver adapts a GSB task box oracle to the Solver interface.
type BoxSolver struct {
	box *mem.TaskBox
}

// NewBoxSolver wraps an oracle box.
func NewBoxSolver(box *mem.TaskBox) *BoxSolver { return &BoxSolver{box: box} }

// Solve implements Solver.
func (b *BoxSolver) Solve(p *sched.Proc, _ int) int { return b.box.Invoke(p) }

// ElectionFromPerfectRenaming solves the election asymmetric GSB task
// (exactly one process decides 1, the rest decide 2) from any perfect
// renaming solver: the process named 1 is the leader. This is the
// universality construction of Theorem 8 specialized to election.
type ElectionFromPerfectRenaming struct {
	renamer Solver
}

// NewElectionFromPerfectRenaming wraps a perfect renaming solver.
func NewElectionFromPerfectRenaming(renamer Solver) *ElectionFromPerfectRenaming {
	return &ElectionFromPerfectRenaming{renamer: renamer}
}

// Solve implements Solver.
func (e *ElectionFromPerfectRenaming) Solve(p *sched.Proc, id int) int {
	if e.renamer.Solve(p, id) == 1 {
		return 1
	}
	return 2
}
