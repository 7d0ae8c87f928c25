package mem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/gsb"
	"repro/internal/sched"
)

// TaskBox is an oracle object solving a GSB task T, used to realize the
// enriched model ASM_{n,t}[T] of Section 5. Its behavior is the most
// adversarial one allowed by the specification: before the run it draws a
// legal output multiset (uniformly over the task's counting vectors, with
// a seeded generator) and hands its elements out in invocation order.
// Because a GSB task maps every input vector to the same output-vector
// set, and any prefix of a legal assignment extends to a legal vector,
// this is a correct implementation of "any object solving T".
type TaskBox struct {
	obj        *sched.ObjectOps
	spec       gsb.Spec
	assignment []int
	next       int
	invoked    []bool
}

// boxDraws memoizes drawn assignments. The draw is a pure function of
// (spec, seed), and callers that construct a box per re-executed run with
// NewTaskBox ask for the same draw millions of times: without the memo
// the math/rand seeding alone dominated the whole exploration hot path.
// The key is the spec's parameters and the seed, varint-encoded into a
// stack buffer, so a hit neither formats nor allocates. A sync.Map fits
// the read-mostly pattern (millions of lock-free hits from concurrent
// workers, a handful of inserts); the cached slice is shared read-only
// between box instances (Invoke only reads it) and the cache is capped as
// a safety valve for callers that sweep unboundedly many seeds. Builders
// that can resolve the draw once use DrawTaskBox instead, which skips
// even the lookup.
var (
	boxDraws     sync.Map // string(appendDrawKey(spec, seed)) -> []int
	boxDrawCount atomic.Int64
)

const boxDrawCacheMax = 1 << 14

// appendDrawKey appends a faithful key for (spec, seed): n, m, every
// lower and upper bound, and the seed.
func appendDrawKey(b []byte, spec gsb.Spec, seed int64) []byte {
	b = binary.AppendUvarint(b, uint64(spec.N()))
	b = binary.AppendUvarint(b, uint64(spec.M()))
	for v := 1; v <= spec.M(); v++ {
		b = binary.AppendUvarint(b, uint64(spec.Lower(v)))
		b = binary.AppendUvarint(b, uint64(spec.Upper(v)))
	}
	return binary.AppendVarint(b, seed)
}

// drawAssignment picks the box's legal output multiset and hand-out order:
// uniformly over the task's counting vectors, then a seeded shuffle.
func drawAssignment(spec gsb.Spec, seed int64) []int {
	var buf [64]byte
	keyBytes := appendDrawKey(buf[:0], spec, seed)
	if v, ok := boxDraws.Load(string(keyBytes)); ok {
		return v.([]int)
	}
	key := string(keyBytes)
	rng := rand.New(rand.NewSource(seed))
	counting := spec.CountingVectors()
	cv := counting[rng.Intn(len(counting))]
	assignment := make([]int, 0, spec.N())
	for v, c := range cv {
		for k := 0; k < c; k++ {
			assignment = append(assignment, v+1)
		}
	}
	rng.Shuffle(len(assignment), func(i, j int) {
		assignment[i], assignment[j] = assignment[j], assignment[i]
	})
	if v, loaded := boxDraws.LoadOrStore(key, assignment); loaded {
		return v.([]int) // another worker drew it first; share one slice
	}
	if boxDrawCount.Add(1) > boxDrawCacheMax {
		// Over capacity: evict an arbitrary other entry rather than
		// refusing inserts — a refused hot key (one box constructed per
		// re-executed run) would re-seed and re-draw forever, while an
		// evicted hot key is simply re-inserted on its next run.
		boxDraws.Range(func(k, _ any) bool {
			if k == key {
				return true
			}
			// Only the goroutine that actually removed the entry may
			// decrement, or racing evictors of one victim would
			// undercount the map and erode the cap.
			if _, removed := boxDraws.LoadAndDelete(k); removed {
				boxDrawCount.Add(-1)
			}
			return false
		})
	}
	return assignment
}

// BoxDraw is a task box's construction resolved once per (name, spec,
// seed): the spec's feasibility checked, the name interned and the legal
// output assignment drawn. New returns a fresh box from it without any
// formatting, spec or cache work, so protocol builders that construct one
// box per re-executed run resolve the draw outside the build.
type BoxDraw struct {
	obj        *sched.ObjectOps
	spec       gsb.Spec
	assignment []int
}

// DrawTaskBox resolves a task box for spec: the seed selects the legal
// output multiset and its hand-out order. It panics for an infeasible
// spec.
func DrawTaskBox(name string, spec gsb.Spec, seed int64) *BoxDraw {
	if !spec.Feasible() {
		panic(fmt.Sprintf("mem: task box for infeasible spec %v", spec))
	}
	return &BoxDraw{obj: sched.Object(name), spec: spec, assignment: drawAssignment(spec, seed)}
}

// New returns a fresh box (no process has invoked it) sharing the draw's
// read-only assignment.
func (d *BoxDraw) New() *TaskBox {
	return &TaskBox{obj: d.obj, spec: d.spec, assignment: d.assignment, invoked: make([]bool, len(d.assignment))}
}

// NewTaskBox allocates an oracle for spec. The seed selects the legal
// output multiset and its hand-out order.
func NewTaskBox(name string, spec gsb.Spec, seed int64) *TaskBox {
	if !spec.Feasible() {
		panic(fmt.Sprintf("mem: task box for infeasible spec %v", spec))
	}
	d := BoxDraw{obj: sched.Object(name), spec: spec, assignment: drawAssignment(spec, seed)}
	return d.New()
}

// Spec returns the task specification the box solves.
func (b *TaskBox) Spec() gsb.Spec { return b.spec }

// Invoke returns the caller's output for the boxed task (one step). Each
// process may invoke at most once; a second invocation panics, as the
// boxed tasks are one-shot.
//
//gsb:hotpath
func (b *TaskBox) Invoke(p *sched.Proc) int {
	p.Step(b.obj.Op(sched.KindInvoke))
	validateIndex(p.Index(), len(b.invoked), "task box")
	if b.invoked[p.Index()] {
		panic(fmt.Sprintf("mem: process %d invoked task box %q twice", p.Index(), b.obj.Name()))
	}
	b.invoked[p.Index()] = true
	v := b.assignment[b.next]
	b.next++
	return v
}

// PerfectRenamingBox returns an oracle for the <n,n,1,1>-GSB task; the
// universality construction of Theorem 8 is built on top of it.
func PerfectRenamingBox(name string, n int, seed int64) *TaskBox {
	return NewTaskBox(name, gsb.PerfectRenaming(n), seed)
}

// SlotBox returns an oracle for the <n,k,1,n>-GSB k-slot task, the KS
// object of Section 6.
func SlotBox(name string, n, k int, seed int64) *TaskBox {
	return NewTaskBox(name, gsb.KSlot(n, k), seed)
}

// WSBBox returns an oracle for weak symmetry breaking, used by the
// WSB -> (2n-2)-renaming reduction.
func WSBBox(name string, n int, seed int64) *TaskBox {
	return NewTaskBox(name, gsb.WSB(n), seed)
}
