package sched

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// This file exposes the prefix-replay internals to replay_test.go, which
// drives them on real protocols: internal/mem and internal/tasks import
// this package, so those tests live in package sched_test.

// countingExplore counts the decisions explorePolicy is consulted on.
type countingExplore struct {
	*explorePolicy
	calls int
}

func (c *countingExplore) Next(pending []int, stepNo int) Decision {
	c.calls++
	return c.explorePolicy.Next(pending, stepNo)
}

// countingPOR counts the decisions porPolicy is consulted on, and notes
// how many coroutine resumptions runner had made when the policy aborted
// the run.
type countingPOR struct {
	*porPolicy
	runner         *Runner
	calls          int
	resumesAtAbort int
}

func (c *countingPOR) NextOps(pending []int, ops []Op, stepNo int) Decision {
	c.calls++
	dec := c.porPolicy.NextOps(pending, ops, stepNo)
	if dec.Abort {
		c.resumesAtAbort = c.runner.resumes
	}
	return dec
}

// CheckReplayEquivalence walks a seeded sample of the schedule tree of
// build (n processes under the named memory model) with the exploration
// policy of reduction, and checks every sampled prefix three ways:
//
//   - the runner replays the prefix itself: the policy is consulted only
//     at the decisions past it (the abort of a sleep-set-blocked POR
//     probe included);
//   - driving the choices the run took through a Script reproduces its
//     granted steps, and for a completed run its whole Result.Schedule,
//     outputs and decided flags, with the choices as its process
//     sequence;
//   - a replayed run resumes coroutines at most once per change of the
//     running process plus once per process first started for a policy
//     decision (those its prefix never picks), and an aborted one resumes
//     nothing after the abort; a scripted run, whose policy takes every
//     decision, at most n + (process changes) times.
//
// It returns the number of prefixes checked.
func CheckReplayEquivalence(t *testing.T, n int, model string, reduction Reduction, build func() Body, maxItems int) int {
	t.Helper()
	m, err := MemModelByName(model)
	if err != nil {
		t.Fatal(err)
	}
	replayer := NewRunner(n, DefaultIDs(n), nil, WithReuse(), WithModel(m))
	defer replayer.Close()
	scripted := NewRunner(n, DefaultIDs(n), nil, WithReuse(), WithModel(m))
	defer scripted.Close()

	ex := &countingExplore{explorePolicy: &explorePolicy{}}
	por := &countingPOR{porPolicy: &porPolicy{}, runner: replayer}
	rng := rand.New(rand.NewSource(1))
	queue := []frontierItem{{choices: []int{}}}
	checked := 0
	for len(queue) > 0 && checked < maxItems {
		item := queue[0]
		queue = queue[1:]
		checked++

		var policy explorerPolicy
		var calls *int
		if reduction == ReductionNone {
			ex.reset(item.choices)
			ex.calls = 0
			policy, calls = ex, &ex.calls
		} else {
			por.reset(item.choices, item.sleep)
			por.calls = 0
			policy, calls = por, &por.calls
		}
		replayer.Reset(policy)
		res, err := replayer.Run(build())
		aborted := errors.Is(err, ErrRunAborted)
		if err != nil && !aborted {
			t.Fatalf("prefix %v: %v", item.choices, err)
		}
		choices := slices.Clone(policy.runChoices())
		want := len(choices) - len(item.choices)
		if aborted {
			want++ // the decision that found every pending process asleep
		}
		if *calls != want {
			t.Fatalf("prefix %v (%d choices): policy consulted %d times, want %d (the post-prefix decisions only)",
				item.choices, len(choices), *calls, want)
		}
		var granted []Step
		for _, s := range res.Schedule {
			if !s.Crash {
				granted = append(granted, s)
			}
		}
		if len(granted) != len(choices) {
			t.Fatalf("prefix %v: %d granted steps for %d choices", item.choices, len(granted), len(choices))
		}
		replayed := Result{
			Schedule: slices.Clone(res.Schedule),
			Outputs:  slices.Clone(res.Outputs),
			Decided:  slices.Clone(res.Decided),
		}
		checkResumes(t, "replayed", item.choices, policyStarts(n, item.choices), replayer.resumes, replayed.Schedule)
		if aborted && replayer.resumes != por.resumesAtAbort {
			t.Fatalf("prefix %v: aborted run resumed coroutines %d times, %d of them after the abort",
				item.choices, replayer.resumes, replayer.resumes-por.resumesAtAbort)
		}

		script := make([]Decision, len(choices))
		for i, c := range choices {
			script[i] = Decision{Proc: c}
		}
		scripted.Reset(NewScript(script))
		sres, err := scripted.Run(build())
		if err != nil {
			t.Fatalf("prefix %v: scripted run: %v", item.choices, err)
		}
		if len(sres.Schedule) < len(granted) {
			t.Fatalf("prefix %v: scripted run took %d steps, replay %d", item.choices, len(sres.Schedule), len(granted))
		}
		for i, s := range granted {
			if sres.Schedule[i] != s || s.Proc != choices[i] {
				t.Fatalf("prefix %v: step %d: replayed %v, scripted %v, choice %d", item.choices, i, s, sres.Schedule[i], choices[i])
			}
		}
		if !aborted {
			if !slices.Equal(sres.Schedule, replayed.Schedule) || !slices.Equal(sres.Outputs, replayed.Outputs) ||
				!slices.Equal(sres.Decided, replayed.Decided) {
				t.Fatalf("prefix %v: scripted run differs from the replay:\nreplayed %v -> %v\nscripted %v -> %v",
					item.choices, replayed.Schedule, replayed.Outputs, sres.Schedule, sres.Outputs)
			}
			checkResumes(t, "scripted", item.choices, n, scripted.resumes, sres.Schedule)
		}

		// Sample the subtrees: keep the first sibling prefix and each
		// other with probability 1/2, so the walk reaches every depth.
		for i, b := range policy.branchItems() {
			if i == 0 || rng.Intn(2) == 0 {
				queue = append(queue, frontierItem{choices: slices.Clone(b.choices), sleep: slices.Clone(b.sleep)})
			}
		}
	}
	return checked
}

// policyStarts is the number of processes a run replaying prefix starts
// for a policy decision: those the prefix never picks.
func policyStarts(n int, prefix []int) int {
	picked := make([]bool, n)
	starts := n
	for _, c := range prefix {
		if !picked[c] {
			picked[c] = true
			starts--
		}
	}
	return starts
}

// checkResumes fails the test when a run resumed coroutines more than
// once per change of running process plus once per process started for a
// policy decision.
func checkResumes(t *testing.T, how string, prefix []int, starts, resumes int, schedule []Step) {
	t.Helper()
	changes := processChanges(schedule)
	if resumes > starts+changes {
		t.Fatalf("prefix %v: %s run resumed coroutines %d times, want at most %d changes + %d policy starts",
			prefix, how, resumes, changes, starts)
	}
}
