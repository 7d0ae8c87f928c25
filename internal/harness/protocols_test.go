package harness

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/tasks"
)

// TestSelectProtocolBuildsAreFresh: builders resolve their spec and box
// draw once, but every build must still return fresh shared state — a
// box shared between builds would reject the second run's invocations —
// and a box protocol built for another n than the selected one still
// resolves its own box.
func TestSelectProtocolBuildsAreFresh(t *testing.T) {
	const n = 3
	for _, name := range []string{"renaming", "grid", "slot-renaming", "wsb", "renaming-wsb", "election", "universal"} {
		spec, build, err := SelectProtocol(name, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for run := range 3 {
			if _, err := tasks.RunVerified(spec, sched.DefaultIDs(n), sched.NewRandom(int64(run)), build); err != nil {
				t.Fatalf("%s: run %d: %v", name, run, err)
			}
		}
		if name != "slot-renaming" && name != "wsb" && name != "renaming-wsb" {
			continue
		}
		res, err := tasks.Run(n+1, sched.DefaultIDs(n+1), sched.NewRoundRobin(), build)
		if err != nil {
			t.Fatalf("%s: build for n=%d: %v", name, n+1, err)
		}
		if _, err := res.DecidedVector(); err != nil {
			t.Fatalf("%s: build for n=%d: %v", name, n+1, err)
		}
	}
}
