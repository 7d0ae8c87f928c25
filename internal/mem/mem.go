// Package mem provides the shared-memory objects of the paper's model:
// arrays of single-writer/multi-reader (1WnR) atomic registers, atomic
// snapshots (both as a native one-step object, justified by Afek et al.
// [1], and as a wait-free construction from 1WnR registers), multi-writer
// registers, and the oracle objects used by enriched models ASM_{n,t}[T]
// (test-and-set, fetch&increment, GSB task boxes).
//
// Every operation is one typed step (sched.Op): an object interns its
// name once, at construction (sched.Object), and each operation requests
// its prebuilt Op with sched.Proc.Step and applies its effect as soon as
// the step is granted — at the step's linearization point, before any
// other process runs — so an operation is exactly one "step" of the
// paper's runs, and a step allocates nothing and builds no strings.
// Values stored in registers must be treated as immutable by protocol
// code: registers copy the value header only (Go assignment), so mutating
// a stored slice after writing it would break atomicity.
//
// Register and snapshot semantics are model-mediated (sched.MemModel,
// docs/models.md): under the default atomic model every operation is the
// one step described above, bit-identical to the pre-registry behavior.
// The weak models add scheduler-visible decision points instead of hidden
// nondeterminism — a run stays a pure function of (model, schedule):
//
//   - TwoPhaseWrites (regular, safe): Write executes as a
//     "<name>.write-start" step opening a write window followed by a
//     "<name>.write-commit" step installing the value. A read scheduled
//     between the two sees the old committed value (regular semantics).
//     A writer crashed between start and commit leaves the window open
//     forever — a torn write.
//   - SafeReads (safe): a Read whose step lands inside an open write
//     window returns the arbitrary value of Lamport's safe registers,
//     represented deterministically as the unwritten zero value.
//   - StaleSnapshots: Array.Snapshot degrades to Collect — n individual
//     read steps instead of one atomic step — so two snapshots need not
//     be mutually comparable.
//
// Snapshots under the two-phase models read committed values only (the
// write weakening and the snapshot weakening are orthogonal axes).
package mem

import (
	"fmt"
	"sync"

	"repro/internal/sched"
)

// Array is an array of n single-writer/multi-reader atomic registers.
// Entry i may be written only by the process with index i.
type Array[T any] struct {
	ops   *sched.ObjectOps
	cells []cell[T]
}

// cell is one register: its committed value, whether it was ever written,
// and (under the two-phase models, see the package comment) how many
// write windows are open on it.
type cell[T any] struct {
	val     T
	written bool
	open    int
}

// NewArray allocates an array of n 1WnR registers holding zero values.
func NewArray[T any](name string, n int) *Array[T] {
	return &Array[T]{ops: sched.Object(name), cells: make([]cell[T], n)}
}

// Len returns the number of registers.
func (a *Array[T]) Len() int { return len(a.cells) }

// Write stores v in the caller's register: one step under the atomic
// model, a write-start/write-commit step pair under the two-phase models.
//
//gsb:hotpath
func (a *Array[T]) Write(p *sched.Proc, v T) {
	c := &a.cells[p.Index()]
	if p.Model().TwoPhaseWrites() {
		p.Step(a.ops.Op(sched.KindWriteStart))
		c.open++
		p.Step(a.ops.Op(sched.KindWriteCommit))
		c.val, c.written = v, true
		c.open--
		return
	}
	p.Step(a.ops.Op(sched.KindWrite))
	c.val, c.written = v, true
}

// Read returns the value of register j (one step) and whether it has ever
// been written. Under the safe model a read overlapping an open write
// window returns the unwritten zero value.
//
//gsb:hotpath
func (a *Array[T]) Read(p *sched.Proc, j int) (T, bool) {
	p.Step(a.ops.Op(sched.KindRead))
	c := &a.cells[j]
	if c.open > 0 && p.Model().SafeReads() {
		var zero T
		return zero, false
	}
	return c.val, c.written
}

// Collect reads all n registers one by one (n steps). Entry j of the
// returned slices is register j's value and written-flag. A collect is
// not atomic: values may come from different points in time.
func (a *Array[T]) Collect(p *sched.Proc) ([]T, []bool) {
	vals := make([]T, len(a.cells))
	oks := make([]bool, len(a.cells))
	for j := range a.cells {
		vals[j], oks[j] = a.Read(p, j)
	}
	return vals, oks
}

// Snapshot returns an atomic snapshot of the array in one step. The paper
// assumes snapshots are available without loss of generality because they
// are wait-free implementable from 1WnR registers (Afek et al.); package
// mem also provides that construction (SnapshotObject) and tests that the
// two agree observationally. The returned slices are fresh: the caller
// owns them.
func (a *Array[T]) Snapshot(p *sched.Proc) ([]T, []bool) {
	if p.Model().StaleSnapshots() {
		// The stale-snapshot model degrades the one-step snapshot into a
		// per-register collect: n read steps, so the values need not be
		// mutually consistent.
		return a.Collect(p)
	}
	p.Step(a.ops.Op(sched.KindSnapshot))
	vals := make([]T, len(a.cells))
	oks := make([]bool, len(a.cells))
	for j := range a.cells {
		vals[j], oks[j] = a.cells[j].val, a.cells[j].written
	}
	return vals, oks
}

// Reg is a multi-writer/multi-reader atomic register (one step per
// operation). The paper's base model uses only 1WnR registers; Reg models
// the standard hardware register used by auxiliary constructions such as
// splitters, and ConstructedMWMR shows how to build it from 1WnR.
type Reg[T any] struct {
	ops *sched.ObjectOps
	cell[T]
}

// NewReg allocates a multi-writer register holding the zero value.
func NewReg[T any](name string) *Reg[T] { return &Reg[T]{ops: sched.Object(name)} }

// Write stores v: one step under the atomic model, a write-start/
// write-commit step pair under the two-phase models.
//
//gsb:hotpath
func (r *Reg[T]) Write(p *sched.Proc, v T) {
	if p.Model().TwoPhaseWrites() {
		p.Step(r.ops.Op(sched.KindWriteStart))
		r.open++
		p.Step(r.ops.Op(sched.KindWriteCommit))
		r.val, r.written = v, true
		r.open--
		return
	}
	p.Step(r.ops.Op(sched.KindWrite))
	r.val, r.written = v, true
}

// Read returns the current value (one step). Under the safe model a read
// overlapping an open write window returns the unwritten zero value.
//
//gsb:hotpath
func (r *Reg[T]) Read(p *sched.Proc) (T, bool) {
	p.Step(r.ops.Op(sched.KindRead))
	if r.open > 0 && p.Model().SafeReads() {
		var zero T
		return zero, false
	}
	return r.val, r.written
}

// TAS is a one-shot test-and-set object: the first invoker wins. It is an
// oracle object (not wait-free implementable from registers); the paper
// uses such objects to define enriched models ASM_{n,t}[T].
type TAS struct {
	op  *sched.Op
	set bool
}

// NewTAS allocates a test-and-set object.
func NewTAS(name string) *TAS { return &TAS{op: sched.Object(name).Op(sched.KindTAS)} }

// TestAndSet returns true iff the caller is the first invoker (one step).
//
//gsb:hotpath
func (t *TAS) TestAndSet(p *sched.Proc) bool {
	p.Step(t.op)
	won := !t.set
	t.set = true
	return won
}

// joinedNames caches JoinName results.
var joinedNames sync.Map // [2]string -> string

// JoinName returns parent+suffix, the name of a sub-object. The result is
// cached per (parent, suffix), so a protocol that names its sub-objects
// on every build allocates no strings for them after the first.
func JoinName(parent, suffix string) string {
	key := [2]string{parent, suffix}
	if s, ok := joinedNames.Load(key); ok {
		return s.(string)
	}
	s, _ := joinedNames.LoadOrStore(key, parent+suffix)
	return s.(string)
}

// tasRows caches the interned test-and-set ops of each row NewTASRow
// builds, keyed by (name, n).
var tasRows sync.Map // tasRowKey -> []*sched.Op

type tasRowKey struct {
	name string
	n    int
}

// NewTASRow allocates n test-and-set objects named name[1] .. name[n] in
// one block. The names are formatted and interned on the first call for
// (name, n) only, so protocols that build a row per re-executed run pay
// one allocation for it.
func NewTASRow(name string, n int) []TAS {
	key := tasRowKey{name, n}
	ops, ok := tasRows.Load(key)
	if !ok {
		row := make([]*sched.Op, n)
		for k := range row {
			row[k] = sched.Object(fmt.Sprintf("%s[%d]", name, k+1)).Op(sched.KindTAS)
		}
		ops, _ = tasRows.LoadOrStore(key, row)
	}
	row := make([]TAS, n)
	for k, op := range ops.([]*sched.Op) {
		row[k].op = op
	}
	return row
}

// FetchInc is a fetch&increment counter oracle object.
type FetchInc struct {
	op   *sched.Op
	next int
}

// NewFetchInc allocates a counter whose first FetchInc returns 0.
func NewFetchInc(name string) *FetchInc {
	return &FetchInc{op: sched.Object(name).Op(sched.KindFetchInc)}
}

// FetchInc atomically returns the current count and increments it.
//
//gsb:hotpath
func (f *FetchInc) FetchInc(p *sched.Proc) int {
	p.Step(f.op)
	v := f.next
	f.next++
	return v
}

// Validate panics unless 0 <= idx < n; used by objects that key state by
// process index.
func validateIndex(idx, n int, what string) {
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("mem: %s index %d outside [0..%d)", what, idx, n))
	}
}
