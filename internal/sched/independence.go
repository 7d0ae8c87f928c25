package sched

import (
	"slices"
	"sync"
)

// This file is the independence (commutation) relation that drives
// partial-order reduction. It is defined on typed operations (Op, op.go):
// every shared-memory step names the interned object it touches, its
// kind, and whether it is read-only or touches an object private to the
// invoking process (only the decide step — the write to the process's own
// write-once output register — is). Package mem builds each object's Ops
// once, at construction, so the relation is a handful of integer compares
// and never looks at a string. Two pending steps of distinct processes
// commute when they touch distinct objects, or when both only read the
// same object; swapping two commuting adjacent steps changes neither the
// final shared state nor any value returned to a process, so the two
// schedules are equivalent in the Mazurkiewicz-trace sense and only one
// representative needs executing.
//
// Recorded schedules carry each step's label (Step.Op, "<object>.<kind>"
// or "decide"). ParseOp maps a label back onto the same typed Op, and
// OpIndependent — the relation over labels that CanonicalTraceHash and the
// samplers use — feeds the facts it reads off two labels to the same
// commute function as IndependentOps: one relation, not two. Steps
// requested through the untyped Proc.Exec are parsed with ParseOp. Labels
// outside the contract (no '.' separator, e.g. the bare
// "noop"/"read"/"write" labels some tests use) touch an unknown object
// and conflict with everything, so reduction degrades to exhaustive
// exploration instead of becoming unsound.
//
// The weak memory models (memmodel.go) decompose a write into a
// write-start/write-commit step pair. Neither kind is read-only, so both
// phases conflict with every other op on the same object exactly as a
// one-step write does — the relation stays conservatively sound without
// model-specific cases, at the cost of exploring the (deliberately
// larger) weak-model state space.

// Independence reports whether the pending operations opA of process
// procA and opB of process procB (procA != procB) commute: executing them
// in either order yields the same shared state and the same return
// values. It must be symmetric and sound — claiming independence for two
// conflicting steps makes partial-order reduction skip real schedules.
type Independence func(procA int, opA string, procB int, opB string) bool

// IndependentOps is the commutation relation on typed operations: steps
// of distinct processes commute iff they touch distinct objects (a
// per-process object never aliases another process's) or are both
// read-only operations on the same object. An op of unknown footprint
// (Obj 0) conflicts with everything.
//
//gsb:hotpath
func IndependentOps(procA int, a Op, procB int, b Op) bool {
	return procA != procB &&
		commute(a.Obj != 0, b.Obj != 0, a.PerProc || b.PerProc, a.Obj == b.Obj, a.ReadOnly && b.ReadOnly)
}

// OpIndependent is IndependentOps over step labels — the Independence
// relation CanonicalTraceHash and the samplers apply to recorded
// schedules. It reads the facts the relation needs straight off the
// labels, without interning: the same parse as ParseOp, and objects
// compare equal by name exactly when their interned ids do.
func OpIndependent(procA int, opA string, procB int, opB string) bool {
	if procA == procB {
		return false
	}
	a, b := footprintOf(opA), footprintOf(opB)
	return commute(a.known, b.known, a.kind == KindDecide || b.kind == KindDecide,
		a.object == b.object, a.kind.ReadOnly() && b.kind.ReadOnly())
}

// commute is the relation itself, for two steps of distinct processes:
// knownA/knownB say whether each footprint is known, perProc whether
// either touches a per-process object, sameObject whether they touch the
// same object and bothReadOnly whether neither modifies it.
func commute(knownA, knownB, perProc, sameObject, bothReadOnly bool) bool {
	switch {
	case !knownA || !knownB:
		return false
	case perProc, !sameObject:
		return true
	}
	return bothReadOnly
}

// dependentStep reports whether recorded steps a and b conflict: same
// process (program order) or non-commuting operations.
func dependentStep(a, b Step, indep Independence) bool {
	if a.Proc == b.Proc {
		return true
	}
	return !indep(a.Proc, a.Op, b.Proc, b.Op)
}

// CanonicalTraceHash hashes the Foata normal form of a completed run's
// step sequence under indep. Equivalent schedules — those differing only
// by swaps of adjacent independent steps — have identical normal forms,
// so the hash identifies the run's Mazurkiewicz trace class (and, for the
// deterministic protocols this engine executes, the final register
// contents, which are a function of the class). The memo layer of the
// reduction and the samplers' class coverage use it, once per run, so it
// works in scratch space (on the stack for schedules of up to 96 steps)
// and hashes with an inlined FNV-1a.
func CanonicalTraceHash(schedule []Step, indep Independence) uint64 {
	// Foata normal form: place each step in the level just below the
	// deepest level holding a step it depends on. Steps within a level
	// are pairwise independent, hence from distinct processes, and are
	// canonically ordered by process index. The steps of level l are
	// linked from head[l] through prev, latest first.
	n := len(schedule)
	var stack [3 * 96]int32
	var scratch []int32
	if 3*n <= len(stack) {
		scratch = stack[:3*n]
	} else {
		scratch = make([]int32, 3*n)
	}
	head, prev, members := scratch[:n], scratch[n:2*n], scratch[2*n:]
	depth := 0
	for i, s := range schedule {
		d := 0
	scan:
		for l := depth - 1; l >= 0; l-- {
			for u := head[l]; u >= 0; u = prev[u] {
				if dependentStep(schedule[u], s, indep) {
					d = l + 1
					break scan
				}
			}
		}
		if d == depth {
			head[d] = -1
			depth++
		}
		prev[i], head[d] = head[d], int32(i)
	}

	h := uint64(fnvOffset64)
	for l := 0; l < depth; l++ {
		// Insertion-sort the level's steps by process (levels hold at
		// most one step per process).
		level := members[:0]
		for u := head[l]; u >= 0; u = prev[u] {
			k := len(level)
			level = append(level, u)
			for ; k > 0 && schedule[level[k-1]].Proc > schedule[u].Proc; k-- {
				level[k] = level[k-1]
			}
			level[k] = u
		}
		for _, u := range level {
			s := schedule[u]
			p := uint32(s.Proc)
			h = fnvByte(fnvByte(fnvByte(fnvByte(h, byte(p)), byte(p>>8)), byte(p>>16)), byte(p>>24))
			for j := 0; j < len(s.Op); j++ {
				h = fnvByte(h, s.Op[j])
			}
			h = fnvByte(h, 0)
		}
		h = fnvByte(h, 0xff)
	}
	return h
}

// FNV-1a, 64-bit (hash/fnv's New64a, inlined so hashing a schedule
// allocates nothing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// traceMemo is the optional second reduction layer: a concurrent set of
// canonical trace hashes. The count it yields — the number of distinct
// classes — is independent of which worker inserts a class first.
type traceMemo struct {
	mu   sync.Mutex
	seen map[uint64]struct{}
}

func newTraceMemo() *traceMemo {
	return &traceMemo{seen: make(map[uint64]struct{})}
}

// admit records h and reports whether it was new.
func (m *traceMemo) admit(h uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.seen[h]; dup {
		return false
	}
	m.seen[h] = struct{}{}
	return true
}

// insert records h without reporting novelty (checkpoint restore).
func (m *traceMemo) insert(h uint64) {
	m.mu.Lock()
	m.seen[h] = struct{}{}
	m.mu.Unlock()
}

// hashes returns the recorded class hashes in ascending order, so a
// serialized memo is a deterministic function of its contents.
func (m *traceMemo) hashes() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.seen))
	for h := range m.seen {
		out = append(out, h) //gsb:nondeterminism-ok canonicalized by the slices.Sort below before anything observes the order
	}
	slices.Sort(out)
	return out
}
