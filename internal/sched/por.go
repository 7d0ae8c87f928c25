package sched

import (
	"errors"
	"fmt"
)

// This file is the partial-order-reduction layer of the exploration
// engine: a sleep-set walk of the schedule tree (Godefroid-style, adapted
// to stateless prefix re-execution) plus an optional canonical-trace memo
// (independence.go).
//
// The exhaustive tree branches at every decision point on every pending
// process, so k mutually commuting steps are re-explored under all k!
// orders. Sleep sets prune exactly those re-explorations: after the
// engine explores the subtree that schedules process p at a node, the
// sibling subtrees carry p in their sleep set — "p's pending step is
// covered elsewhere; do not schedule it until some step that conflicts
// with it executes". A schedule is therefore pruned only when an
// equivalent schedule (same Mazurkiewicz trace) is explored under a
// lexicographically smaller choice sequence, which preserves both the
// engine's verdict and its lex-min violation report.
//
// A descent can reach a node where every pending process is asleep; the
// runs that continue from it are all covered elsewhere, so the policy
// aborts the run (Decision.Abort -> ErrRunAborted). Aborted probes count
// against MaxRuns — they did execute — but are not schedules.

// Reduction selects the partial-order reduction applied by Explore to
// exhaustive (failure-free) exploration. Crash sweep mode ignores it.
type Reduction int

const (
	// ReductionNone explores the schedule tree exhaustively (the
	// default; one run per interleaving).
	ReductionNone Reduction = iota
	// ReductionSleepSets prunes the frontier with sleep sets over the
	// OpIndependent commutation relation: one run per Mazurkiewicz
	// trace class, the class's lexicographically smallest member.
	ReductionSleepSets
	// ReductionSleepMemo is ReductionSleepSets plus a canonical-trace
	// memo that refuses to count a trace class twice (a cross-check
	// layer; with sound sleep sets it changes no counts).
	ReductionSleepMemo
)

// String implements fmt.Stringer.
func (r Reduction) String() string {
	switch r {
	case ReductionNone:
		return "none"
	case ReductionSleepSets:
		return "sleep-sets"
	case ReductionSleepMemo:
		return "sleep-sets+memo"
	default:
		return fmt.Sprintf("Reduction(%d)", int(r))
	}
}

func (r Reduction) valid() bool {
	return r >= ReductionNone && r <= ReductionSleepMemo
}

// ErrRunAborted is returned by Runner.Run when the policy discards the
// rest of a run via Decision.Abort. The exploration engine treats such
// runs as pruned probes: they consume run budget but are not schedules.
var ErrRunAborted = errors.New("sched: run aborted by the scheduling policy")

// porPolicy is the sleep-set variant of explorePolicy: its runs open
// with a fixed prefix of choices, which the runner replays
// (replayPolicy), then it descends picking the smallest pending process
// that is not asleep, maintaining the sleep set across decisions and
// recording everything branch generation needs. It implements
// OpAwarePolicy to learn the typed op of every pending step; without ops
// (plain Next) all steps are treated as conflicting and the walk degrades
// to the exhaustive one.
//
// A porPolicy is per-worker scratch: reset re-arms it for the next run,
// and its records live in flat arenas that keep their capacity across
// runs, so a decision allocates nothing in steady state.
type porPolicy struct {
	prefix []int

	choices []int // process chosen at each decision, the prefix included
	// Recorded per post-prefix decision j, aligned with
	// choices[len(prefix):]: the pending set (sorted) with its ops, and
	// the sleep set (sorted) at the node. Decision j's pending set is
	// pend[pendEnd[j-1]:pendEnd[j]] (from 0 for j = 0), likewise sleep.
	pend     []int
	ops      []Op
	pendEnd  []int
	sleep    []int
	sleepEnd []int

	cur   []int // current sleep set during the descent
	noOps []Op  // zero ops (unknown footprint) for the plain Next path
	items []frontierItem
}

// reset re-arms the policy to replay prefix from a node whose sleep set
// is sleep0, keeping every buffer's capacity.
func (e *porPolicy) reset(prefix, sleep0 []int) {
	e.prefix = prefix
	e.choices = append(e.choices[:0], prefix...)
	e.pend, e.ops, e.pendEnd = e.pend[:0], e.ops[:0], e.pendEnd[:0]
	e.sleep, e.sleepEnd = e.sleep[:0], e.sleepEnd[:0]
	e.cur = append(e.cur[:0], sleep0...)
}

// replayPrefix implements replayPolicy.
func (e *porPolicy) replayPrefix() []int { return e.prefix }

// Next implements Policy (no ops: conservative, no reduction).
func (e *porPolicy) Next(pending []int, stepNo int) Decision {
	for len(e.noOps) < len(pending) {
		e.noOps = append(e.noOps, Op{})
	}
	return e.decide(pending, e.noOps[:len(pending)], stepNo)
}

// NextOps implements OpAwarePolicy.
func (e *porPolicy) NextOps(pending []int, ops []Op, stepNo int) Decision {
	return e.decide(pending, ops, stepNo)
}

// decide takes a post-prefix decision (the runner replays the prefix).
//
//gsb:hotpath
func (e *porPolicy) decide(pending []int, ops []Op, _ int) Decision {
	// A sleeping process is blocked on its pending request, so it cannot
	// leave the pending set; the intersection guards the invariant
	// cur ⊆ pending rather than doing real work.
	e.cur = intersectSorted(e.cur, pending)
	pick := -1
	for _, p := range pending {
		if !containsSorted(e.cur, p) {
			pick = p
			break
		}
	}
	if pick < 0 {
		// Every pending step is covered by a subtree explored under a
		// smaller choice sequence: discard the rest of the run.
		return Decision{Abort: true}
	}

	e.pend = append(e.pend, pending...)           //gsb:alloc-ok per-worker arena, reset keeps its capacity
	e.ops = append(e.ops, ops...)                 //gsb:alloc-ok per-worker arena, reset keeps its capacity
	e.pendEnd = append(e.pendEnd, len(e.pend))    //gsb:alloc-ok per-worker arena, reset keeps its capacity
	e.sleep = append(e.sleep, e.cur...)           //gsb:alloc-ok per-worker arena, reset keeps its capacity
	e.sleepEnd = append(e.sleepEnd, len(e.sleep)) //gsb:alloc-ok per-worker arena, reset keeps its capacity
	e.choices = append(e.choices, pick)           //gsb:alloc-ok per-worker scratch, reset keeps its capacity

	// Descend into the followed child: a process stays asleep only while
	// it commutes with every step executed since it was put to sleep.
	pickOp := ops[indexSorted(pending, pick)]
	kept := e.cur[:0] // the arena holds its own copy; filter in place
	for _, u := range e.cur {
		if IndependentOps(u, ops[indexSorted(pending, u)], pick, pickOp) {
			kept = append(kept, u) //gsb:alloc-ok filters e.cur in place, never grows
		}
	}
	e.cur = kept
	return Decision{Proc: pick}
}

// branchItems returns the unexplored sibling prefixes with their sleep
// sets: at every post-prefix decision, one child per pending process alt
// that is larger than the chosen one and not asleep. The child explored
// via alt sleeps on everything already asleep at the node plus every
// allowed transition ordered before alt (they are explored in their own
// subtrees first), filtered down to the transitions that commute with
// alt — the ones whose pending step survives alt unchanged. Each child's
// choices and sleep set share one allocation; the returned slice is the
// policy's scratch, valid until the next reset.
func (e *porPolicy) branchItems() []frontierItem {
	out := e.items[:0]
	pStart, sStart := 0, 0
	for j, pEnd := range e.pendEnd {
		sEnd := e.sleepEnd[j]
		pending, ops, sleep := e.pend[pStart:pEnd], e.ops[pStart:pEnd], e.sleep[sStart:sEnd]
		pStart, sStart = pEnd, sEnd
		i := len(e.prefix) + j
		chosen := e.choices[i]
		for ai, alt := range pending {
			if alt <= chosen || containsSorted(sleep, alt) {
				continue
			}
			altOp := ops[ai]
			// The child's sleep set is collected in e.cur (free once the
			// run is over) and copied behind the child's choices.
			childSleep := e.cur[:0]
			for ui, u := range pending {
				if u == alt {
					continue
				}
				if u > alt && !containsSorted(sleep, u) {
					continue // explored after alt, not yet covered
				}
				if IndependentOps(u, ops[ui], alt, altOp) {
					childSleep = append(childSleep, u)
				}
			}
			e.cur = childSleep
			buf := make([]int, i+1+len(childSleep))
			copy(buf, e.choices[:i])
			buf[i] = alt
			copy(buf[i+1:], childSleep)
			item := frontierItem{choices: buf[: i+1 : i+1]}
			if len(childSleep) > 0 {
				item.sleep = buf[i+1:]
			}
			out = append(out, item)
		}
	}
	e.items = out
	return out
}

// runChoices implements explorerPolicy.
func (e *porPolicy) runChoices() []int { return e.choices }

// containsSorted reports whether sorted slice s contains x.
func containsSorted(s []int, x int) bool {
	return indexSorted(s, x) >= 0
}

// indexSorted returns the index of x in sorted slice s, or -1. The
// slices here are pending sets (a handful of process indexes), so a
// linear scan beats binary search.
func indexSorted(s []int, x int) int {
	for i, v := range s {
		if v == x {
			return i
		}
		if v > x {
			return -1
		}
	}
	return -1
}

// intersectSorted returns the elements of sorted a also in sorted b,
// reusing a's backing array.
func intersectSorted(a, b []int) []int {
	out := a[:0]
	for _, v := range a {
		if containsSorted(b, v) {
			out = append(out, v)
		}
	}
	return out
}
