package sched

import (
	"errors"
	"runtime"
	"slices"
	"testing"
)

// typedBody takes k typed write steps on a shared object, then decides
// its identity: every step is one a process applies itself, so the
// runner may grant it in place.
func typedBody(k int) Body {
	op := Object("handoff.X").Op(KindWrite)
	return func(p *Proc) {
		for i := 0; i < k; i++ {
			p.Step(op)
		}
		p.Decide(p.ID())
	}
}

// processChanges counts the granted steps of a schedule whose process
// differs from the previous step's; the first step counts as a change.
func processChanges(schedule []Step) int {
	changes, last := 0, -1
	for _, s := range schedule {
		if s.Crash {
			continue
		}
		if s.Proc != last {
			changes++
		}
		last = s.Proc
	}
	return changes
}

// TestResumesPerProcessChange pins the cost model of in-place grants: a
// run with only typed steps costs one coroutine resumption (two stack
// switches) per process to start it and one per change of the running
// process — at most 2n + 2·changes switches, however many steps a
// process takes in a row. A regression to per-step handoff resumes once
// per step and fails here.
func TestResumesPerProcessChange(t *testing.T) {
	const n, k = 3, 6
	steps := k + 1
	// Each process runs to completion in turn, then a schedule that
	// alternates in pairs.
	var serial, pairs []Decision
	for p := 0; p < n; p++ {
		for i := 0; i < steps; i++ {
			serial = append(serial, Decision{Proc: p})
		}
	}
	for i := 0; i < steps; i += 2 {
		for p := 0; p < n; p++ {
			pairs = append(pairs, Decision{Proc: p})
			if i+1 < steps {
				pairs = append(pairs, Decision{Proc: p})
			}
		}
	}
	r := NewRunner(n, DefaultIDs(n), nil, WithReuse())
	defer r.Close()
	for _, tc := range []struct {
		name   string
		script []Decision
	}{{"serial", serial}, {"pairs", pairs}} {
		t.Run(tc.name, func(t *testing.T) {
			r.Reset(NewScript(tc.script))
			res, err := r.Run(typedBody(k))
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != n*steps {
				t.Fatalf("steps = %d, want %d", res.Steps, n*steps)
			}
			for i, d := range tc.script {
				if res.Schedule[i].Proc != d.Proc {
					t.Fatalf("schedule[%d] = %v, script says process %d", i, res.Schedule[i], d.Proc)
				}
			}
			changes := processChanges(res.Schedule)
			if switches, bound := 2*r.resumes, 2*n+2*changes; switches > bound {
				t.Fatalf("%d coroutine switches for %d steps with %d process changes, want at most 2n+2·changes = %d",
					switches, res.Steps, changes, bound)
			}
		})
	}
}

// inPlacePanic is the value a policy panics with; it must reach the
// caller of Run unwrapped.
type inPlacePanic struct{ decision int }

// panickyPolicy grants the smallest pending process and panics on its
// k-th decision, recording whether that decision was taken in place (on
// the stack of the process that had just been granted a step).
type panickyPolicy struct {
	r       *Runner
	k       int
	calls   int
	inPlace bool
}

func (pp *panickyPolicy) Next(pending []int, _ int) Decision {
	pp.calls++
	if pp.calls == pp.k {
		pp.inPlace = pp.r.stepper != nil
		panic(inPlacePanic{decision: pp.k})
	}
	return Decision{Proc: pending[0]}
}

// TestInPlaceDecisionPanicIsReraisedUnwrapped: a policy panic raised
// while a process decides in place is a scheduler-side panic. Run must
// unwind every process — the deciding one included — and re-raise the
// original value as-is, not as a ProcessPanics, on both a one-shot and a
// reusable runner; the reusable runner must then run cleanly.
func TestInPlaceDecisionPanicIsReraisedUnwrapped(t *testing.T) {
	const n, k = 3, 4
	for _, reuse := range []bool{false, true} {
		name := "run"
		if reuse {
			name = "reuse"
		}
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var opts []Option
			if reuse {
				opts = append(opts, WithReuse())
			}
			r := NewRunner(n, DefaultIDs(n), nil, opts...)
			// Decision 1 is the scheduler's; from decision 2 on process
			// 0 decides in place while it keeps being picked.
			pp := &panickyPolicy{r: r, k: 3}
			func() {
				defer func() {
					rec := recover()
					got, ok := rec.(inPlacePanic)
					if !ok || got.decision != pp.k {
						t.Fatalf("recovered %#v (%T), want the policy's inPlacePanic{%d} unwrapped", rec, rec, pp.k)
					}
				}()
				r.Reset(pp)
				_, _ = r.Run(typedBody(k))
			}()
			if !pp.inPlace {
				t.Fatal("the panicking decision was not taken in place")
			}
			if reuse {
				r.Reset(NewRoundRobin())
				res, err := r.Run(typedBody(k))
				if err != nil {
					t.Fatalf("run after a policy panic: %v", err)
				}
				for i := 0; i < n; i++ {
					if !res.Decided[i] || res.Outputs[i] != i+1 {
						t.Fatalf("run after a policy panic left process %d undecided: %+v", i, res)
					}
				}
				r.Close()
			}
			waitGoroutines(t, before)
		})
	}
}

// TestInPlaceDecisionDiverges: a replayed prefix that diverges at a
// decision taken in place — the running process finished, the script
// names it again — fails the run with ErrScheduleDiverged like a
// divergence the scheduler finds.
func TestInPlaceDecisionDiverges(t *testing.T) {
	before := runtime.NumGoroutine()
	// Process 1 takes its write and decide and exits; process 0's write
	// is granted, and the decision after its next request — taken in
	// place — names process 1 again.
	policy := &explorePolicy{}
	policy.reset([]int{1, 1, 0, 1})
	_, err := NewRunner(2, DefaultIDs(2), policy).Run(typedBody(1))
	if !errors.Is(err, ErrScheduleDiverged) {
		t.Fatalf("err = %v, want ErrScheduleDiverged", err)
	}
	waitGoroutines(t, before)
}

// TestFullPrefixResumesOncePerBlock pins lazy start: replaying a completed
// run's full choice list starts each process on the choice that first
// picks it and consults no policy, so the run resumes a coroutine exactly
// once per maximal same-process block of its schedule — starting a
// process and granting its first step is a single resume. Starting every
// process up front costs n more.
func TestFullPrefixResumesOncePerBlock(t *testing.T) {
	const n, k = 4, 3
	r := NewRunner(n, DefaultIDs(n), nil, WithReuse())
	defer r.Close()
	for seed := int64(1); seed <= 20; seed++ {
		r.Reset(NewRandom(seed))
		res, err := r.Run(typedBody(k))
		if err != nil {
			t.Fatal(err)
		}
		schedule := slices.Clone(res.Schedule)
		choices := make([]int, len(schedule))
		for i, s := range schedule {
			choices[i] = s.Proc
		}
		policy := &countingExplore{explorePolicy: &explorePolicy{}}
		policy.reset(choices)
		r.Reset(policy)
		res, err = r.Run(typedBody(k))
		if err != nil {
			t.Fatalf("seed %d: replaying %v: %v", seed, choices, err)
		}
		if !slices.Equal(res.Schedule, schedule) {
			t.Fatalf("seed %d: replay scheduled %v, the run it replays %v", seed, res.Schedule, schedule)
		}
		if policy.calls != 0 {
			t.Fatalf("seed %d: policy consulted %d times on a fully replayed run", seed, policy.calls)
		}
		if blocks := processChanges(schedule); r.resumes != blocks {
			t.Fatalf("seed %d: %d resumes for %d same-process blocks (schedule %v)", seed, r.resumes, blocks, choices)
		}
	}
}

// TestEarlyEndResumesNothing: ending a run early resumes no coroutine.
// A POR probe whose every pending process is asleep, and replays that
// diverge (found in place or by the scheduler), cost exactly the resumes
// of the steps they granted — one per same-process block, plus one per
// process started for a policy decision — and none to crash the rest.
func TestEarlyEndResumesNothing(t *testing.T) {
	const n = 2
	r := NewRunner(n, DefaultIDs(n), nil, WithReuse())
	defer r.Close()

	t.Run("por-probe", func(t *testing.T) {
		// Process 0's write is replayed; at the first policy decision
		// both pending processes are asleep.
		por := &countingPOR{porPolicy: &porPolicy{}, runner: r}
		por.reset([]int{0}, []int{0, 1})
		r.Reset(por)
		res, err := r.Run(typedBody(1))
		if !errors.Is(err, ErrRunAborted) {
			t.Fatalf("err = %v, want ErrRunAborted", err)
		}
		if por.calls != 1 {
			t.Fatalf("policy consulted %d times, want 1 (the abort)", por.calls)
		}
		if r.resumes != por.resumesAtAbort {
			t.Fatalf("%d resumes, %d of them after the abort", r.resumes, r.resumes-por.resumesAtAbort)
		}
		if want := processChanges(res.Schedule) + 1; r.resumes != want {
			t.Fatalf("%d resumes, want %d (one block, one policy start)", r.resumes, want)
		}
		if !res.Crashed[0] || !res.Crashed[1] {
			t.Fatalf("aborted run did not crash every live process: %v", res.Schedule)
		}
	})

	for _, tc := range []struct {
		name   string
		prefix []int
		starts int // processes the prefix never picks
	}{
		{"in-place", []int{1, 1, 0, 1}, 0}, // process 0 finds process 1 finished
		{"scheduler", []int{1, 1, 1}, 1},   // the scheduler finds process 1 finished
	} {
		t.Run("diverged/"+tc.name, func(t *testing.T) {
			policy := &explorePolicy{}
			policy.reset(tc.prefix)
			r.Reset(policy)
			res, err := r.Run(typedBody(1))
			if !errors.Is(err, ErrScheduleDiverged) {
				t.Fatalf("err = %v, want ErrScheduleDiverged", err)
			}
			if want := processChanges(res.Schedule) + tc.starts; r.resumes != want {
				t.Fatalf("%d resumes, want %d (schedule %v)", r.resumes, want, res.Schedule)
			}
		})
	}
}
