package sched

import (
	"context"
	"errors"
	"fmt"
)

// This file is a "model checker lite": it enumerates EVERY failure-free
// schedule of a deterministic protocol (the tree of adversary choices)
// and checks a property on each complete run. Protocols are deterministic
// given the schedule, so stateless re-execution with a scripted prefix
// explores the full tree. Crash choices are excluded from the exhaustive
// tree — the crash-free schedule space is already exponential — and are
// covered instead by the randomized crash sweep mode of Explore (set
// ExploreOptions.CrashRuns), which distributes seeded crash-injected runs
// over the same worker pool.
//
// The exhaustive engine itself lives in explore_parallel.go; this file
// keeps the prefix-replay policy (the runner replays its prefix) and the
// single-goroutine reference implementation that the parallel engine is
// differentially tested against.

// ErrExplorationBudget is returned when the schedule tree exceeds the
// caller's run budget.
var ErrExplorationBudget = errors.New("sched: exploration budget exhausted")

// ErrScheduleDiverged is returned (wrapped) by Runner.Run when the
// runner's replay of a prefix-replay policy's prefix finds that the
// scripted process has no pending step: the protocol behaved differently
// than it did when the prefix was recorded, i.e. it is not a
// deterministic function of the schedule.
// Exploration and sampling surface it as a per-run failure instead of a
// panic, so one non-deterministic protocol cannot kill a worker pool.
var ErrScheduleDiverged = errors.New("sched: schedule replay diverged (non-deterministic protocol?)")

// explorePolicy opens each run with a fixed prefix of choices, which the
// runner replays (replayPolicy), then always picks the smallest pending
// process, recording the pending set of every decision past the prefix
// (the only ones that branch). Like porPolicy it is per-worker scratch:
// reset re-arms it and its flat arena keeps its capacity across runs.
type explorePolicy struct {
	prefix  []int
	choices []int // process chosen at each decision, the prefix included
	// pend holds the pending sets of the post-prefix decisions back to
	// back; decision len(prefix)+j's set is pend[pendEnd[j-1]:pendEnd[j]]
	// (from 0 for j = 0).
	pend    []int
	pendEnd []int
	items   []frontierItem
}

// reset re-arms the policy to replay prefix, keeping every buffer's
// capacity.
func (e *explorePolicy) reset(prefix []int) {
	e.prefix = prefix
	e.choices = append(e.choices[:0], prefix...)
	e.pend, e.pendEnd = e.pend[:0], e.pendEnd[:0]
}

// replayPrefix implements replayPolicy.
func (e *explorePolicy) replayPrefix() []int { return e.prefix }

// Next implements Policy. The runner calls it only past the prefix.
//
//gsb:hotpath
func (e *explorePolicy) Next(pending []int, _ int) Decision {
	e.choices = append(e.choices, pending[0])  //gsb:alloc-ok per-worker scratch, reset keeps its capacity
	e.pend = append(e.pend, pending...)        //gsb:alloc-ok per-worker arena, reset keeps its capacity
	e.pendEnd = append(e.pendEnd, len(e.pend)) //gsb:alloc-ok per-worker arena, reset keeps its capacity
	return Decision{Proc: pending[0]}
}

// runChoices implements explorerPolicy.
func (e *explorePolicy) runChoices() []int { return e.choices }

// branchItems implements explorerPolicy (exhaustive mode: no sleep
// sets): for every decision point past the replayed prefix, one new
// prefix per pending process larger than the one chosen (the chosen
// process is always the smallest pending), in decision order. The
// returned slice is the policy's scratch, valid until the next reset.
func (e *explorePolicy) branchItems() []frontierItem {
	out := e.items[:0]
	start := 0
	for j, end := range e.pendEnd {
		i := len(e.prefix) + j
		chosen := e.choices[i]
		for _, alt := range e.pend[start:end] {
			if alt <= chosen {
				continue
			}
			branch := make([]int, i+1)
			copy(branch, e.choices[:i])
			branch[i] = alt
			out = append(out, frontierItem{choices: branch})
		}
		start = end
	}
	e.items = out
	return out
}

// ExploreAll runs the protocol under every failure-free schedule and
// invokes check on each completed run. build is called once per run and
// must return a fresh protocol instance (fresh shared memory). It returns
// the number of distinct schedules explored. maxRuns bounds the
// exploration (ErrExplorationBudget beyond it); maxSteps bounds each
// individual run.
//
// ExploreAll is the single-worker entry point of the work-distributing
// engine in explore_parallel.go; build and check may therefore keep state
// across runs. Note one difference from the historical depth-first
// implementation: on a property violation the engine keeps exploring
// lexicographically smaller schedules and then re-executes the runs below
// the reported one to make the returned count deterministic, so build and
// check are invoked more times (and in a different order) than a DFS that
// stops at the first violation. Builds whose behavior depends on the
// invocation count should use ExploreSequential instead. Use Explore with
// ExploreOptions{Workers: N} to spread the tree over N workers (build and
// check must then be safe for concurrent use).
//
// The protocol must be deterministic given the schedule (true for every
// protocol in this repository; randomized protocols would make prefix
// replay diverge, which is detected and reported as ErrScheduleDiverged).
func ExploreAll(n int, ids []int, maxRuns, maxSteps int, build func() Body, check func(*Result) error) (int, error) {
	return Explore(context.Background(), n, ids, ExploreOptions{
		Workers:  1,
		MaxRuns:  maxRuns,
		MaxSteps: maxSteps,
	}, build, check)
}

// ExploreSequential is the historical LIFO-stack depth-first exploration,
// kept as the reference implementation: the parallel engine is
// differentially tested and benchmarked against it. Semantics are those
// of ExploreAll. It deliberately constructs a fresh Runner per run —
// unlike the parallel engine, whose workers reuse one runner each via
// Reset — so the differential tests double as a reuse-versus-fresh
// equivalence check.
func ExploreSequential(n int, ids []int, maxRuns, maxSteps int, build func() Body, check func(*Result) error) (int, error) {
	stack := [][]int{{}}
	runs := 0
	for len(stack) > 0 {
		if runs >= maxRuns {
			return runs, fmt.Errorf("%w (after %d runs)", ErrExplorationBudget, runs)
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		policy := &explorePolicy{}
		policy.reset(prefix)
		runner := NewRunner(n, ids, policy, WithMaxSteps(maxSteps))
		res, err := runner.Run(build())
		if err != nil {
			return runs, fmt.Errorf("sched: exploration run with prefix %v: %w", prefix, err)
		}
		runs++
		if err := check(res); err != nil {
			return runs, fmt.Errorf("sched: schedule %v violates property: %w", policy.choices, err)
		}
		for _, it := range policy.branchItems() {
			stack = append(stack, it.choices)
		}
	}
	return runs, nil
}
