package harness

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tasks"
)

// exploreAllocsPerRun explores protocol at n on one worker and returns the
// heap allocations per executed run (aborted probes included), measured
// over the whole exploration.
func exploreAllocsPerRun(t *testing.T, protocol string, n int, red sched.Reduction) float64 {
	t.Helper()
	spec, build, err := SelectProtocol(protocol, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := func() sched.Body { return tasks.Body(build(n)) }
	check := func(r *sched.Result) error { return tasks.VerifyResult(spec, r) }
	opts := sched.ExploreOptions{Workers: 1, Reduction: red}
	// Warm the interned names and the draw cache.
	if _, err := sched.Explore(context.Background(), n, sched.DefaultIDs(n), opts, body, check); err != nil {
		t.Fatal(err)
	}
	reg := stats.New()
	opts.Stats = reg
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = sched.Explore(context.Background(), n, sched.DefaultIDs(n), opts, body, check)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runs := reg.Snapshot().Counters[sched.MetricRuns]
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestExploreAllocsPerRun pins whole-run allocation ceilings on real
// protocols: the engine allocates only frontier prefixes per run, so what
// remains is the protocol instance each build returns, the snapshot
// slices handed to protocol code and verification. A regression that
// puts an allocation back on the step or decision path adds at least one
// per step and breaks the ceiling.
func TestExploreAllocsPerRun(t *testing.T) {
	for _, c := range []struct {
		protocol string
		n        int
		red      sched.Reduction
		ceiling  float64 // measured value plus slack
	}{
		{"slot-renaming", 3, sched.ReductionSleepSets, 13}, // measured 12.0
		{"universal", 3, sched.ReductionNone, 6},           // measured 5.2
	} {
		if got := exploreAllocsPerRun(t, c.protocol, c.n, c.red); got > c.ceiling {
			t.Errorf("%s n=%d %v: %.2f allocs/run, ceiling %v", c.protocol, c.n, c.red, got, c.ceiling)
		}
	}
}
