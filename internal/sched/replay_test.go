package sched_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/tasks"
)

// TestReplayEquivalenceSlotRenaming checks the runner-side prefix replay
// of both exploration policies on slot-renaming n=3 (Figure 2) under the
// atomic and the regular memory model: sampled frontier prefixes
// replayed by the runner match the same choices driven through a Script,
// the policy is consulted only past the prefix, runs pay one coroutine
// resumption per change of running process plus one per process started
// for a policy decision, and an aborted probe none after its abort
// (sched.CheckReplayEquivalence).
func TestReplayEquivalenceSlotRenaming(t *testing.T) {
	const n = 3
	_, solver, err := harness.SelectProtocol("slot-renaming", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func() sched.Body { return tasks.Body(solver(n)) }
	for _, model := range []string{sched.ModelAtomic, sched.ModelRegular} {
		for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleepSets} {
			t.Run(model+"/"+red.String(), func(t *testing.T) {
				if got := sched.CheckReplayEquivalence(t, n, model, red, build, 400); got < 50 {
					t.Fatalf("only %d prefixes sampled, want at least 50", got)
				}
			})
		}
	}
}
