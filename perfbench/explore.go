package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro"
	"repro/internal/sched"
	"repro/internal/stats"
)

// exploreJob is one model-checking question answered by repro.Explore
// with one worker.
type exploreJob struct {
	name      string
	protocol  string
	n         int
	reduction repro.Reduction
	model     string
}

// exhaustiveJobs search every failure-free schedule with no reduction:
// the time goes to coroutine handoff, mem operations, protocol
// construction and spec checks, never to POR, the Foata hash,
// checkpoints or the fleet.
var exhaustiveJobs = []exploreJob{
	{name: "universal-4", protocol: "universal", n: 4},
	{name: "renaming-wsb-3", protocol: "renaming-wsb", n: 3},
}

// porJobs run sleep-set POR to a verdict; most of their runs are
// sleep-set-blocked aborts, and the regular-register job exercises the
// two-phase writes of package mem.
var porJobs = []exploreJob{
	{name: "slot-renaming-4", protocol: "slot-renaming", n: 4, reduction: repro.ReductionSleepSets},
	{name: "renaming-3", protocol: "renaming", n: 3, reduction: repro.ReductionSleepSets},
	{name: "slot-renaming-3-regular", protocol: "slot-renaming", n: 3, reduction: repro.ReductionSleepSets, model: repro.ModelRegular},
}

// preparedJob is a job with its protocol resolved for one input seed.
type preparedJob struct {
	exploreJob
	spec  repro.Spec
	build func(n int) repro.Solver
	ids   []int
	opts  repro.ExploreOptions
	want  jobCounts
}

func prepare(j exploreJob, seed int64) (preparedJob, error) {
	spec, build, err := repro.SelectProtocol(j.protocol, j.n, seed)
	if err != nil {
		return preparedJob{}, err
	}
	return preparedJob{
		exploreJob: j, spec: spec, build: build, ids: repro.DefaultIDs(j.n),
		opts: repro.ExploreOptions{Workers: 1, Reduction: j.reduction, Model: j.model},
	}, nil
}

// explore answers the job's question once. It returns the verified
// schedule count and the engine's run and abort counters.
func (p *preparedJob) explore(ctx context.Context, build func() sched.Body, check func(*repro.RunResult) error) (jobCounts, error) {
	reg := repro.NewStatsRegistry()
	opts := p.opts
	opts.Stats = reg
	n, err := repro.Explore(ctx, p.n, p.ids, opts, build, check)
	return countsOf(n, reg), err
}

func countsOf(schedules int, reg *stats.Registry) jobCounts {
	s := reg.Snapshot()
	return jobCounts{
		Schedules: int64(schedules),
		Runs:      s.Counters[sched.MetricRuns],
		Aborts:    s.Counters[sched.MetricAborts],
	}
}

func (p *preparedJob) body() func() sched.Body {
	return func() sched.Body { return repro.SolverBody(p.build(p.n)) }
}

func (p *preparedJob) check() func(*repro.RunResult) error {
	return func(r *repro.RunResult) error { return repro.VerifyResult(p.spec, r) }
}

// warmRuns bounds the exploration that warms each job during set-up.
const warmRuns = 500

// warm explores the first warmRuns runs of the job, checking each.
func (p *preparedJob) warm(ctx context.Context) error {
	opts := p.opts
	opts.MaxRuns = warmRuns
	_, err := repro.Explore(ctx, p.n, p.ids, opts, p.body(), p.check())
	if err != nil && !errors.Is(err, repro.ErrExplorationBudget) {
		return err
	}
	return nil
}

// exploreWorkload runs a list of explore jobs back to back.
type exploreWorkload struct {
	jobs []exploreJob
	seed int64
	ref  *reference
	prep []preparedJob
}

func newExploreWorkload(jobs []exploreJob, seed int64, ref *reference) *exploreWorkload {
	return &exploreWorkload{jobs: jobs, seed: seed, ref: ref}
}

func (w *exploreWorkload) setup(ctx context.Context) error {
	w.prep = w.prep[:0]
	for _, j := range w.jobs {
		p, err := prepare(j, w.seed)
		if err != nil {
			return err
		}
		want, ok := w.ref.explore(w.seed, j.name)
		if !ok {
			return fmt.Errorf("reference.json has no counts for job %s at input seed %d", j.name, w.seed)
		}
		p.want = want
		if err := p.warm(ctx); err != nil {
			return fmt.Errorf("%s: warm-up: %w", j.name, err)
		}
		w.prep = append(w.prep, p)
	}
	return nil
}

func (w *exploreWorkload) close() {}

func (w *exploreWorkload) pass(ctx context.Context, tr *tracer) passResult {
	var res passResult
	root := tr.begin("pass", 0, "")
	st := newScaledTimer()
	for i := range w.prep {
		p := &w.prep[i]
		span := tr.begin("job", root, p.name)
		build, check := p.body(), p.check()
		var jt *jobTrace
		if tr != nil {
			jt = tr.job(p)
			build, check = jt.wrap(build, check)
		}
		call := tr.begin("explore", span, p.name)
		jt.start()
		t0 := time.Now()
		got, err := p.explore(ctx, build, check)
		d := time.Since(t0)
		jt.stop(got)
		tr.end(call)
		tr.end(span)
		res.wall += d
		res.jobs = append(res.jobs, st.scale(d))

		res.attempted++
		res.schedules += got.Schedules
		res.classes += p.want.Classes
		if msg := verdictProblem(p.name, got, p.want, err); msg != "" {
			res.failed++
			res.problems = append(res.problems, msg)
		}
	}
	tr.end(root)
	return res
}

// verdictProblem compares a job's outcome with its reference and
// describes the first difference ("" when it matches).
func verdictProblem(name string, got, want jobCounts, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", name, err)
	case got.Schedules != want.Schedules || got.Runs != want.Runs || got.Aborts != want.Aborts:
		return fmt.Sprintf("%s: schedules/runs/aborts %d/%d/%d, reference %d/%d/%d",
			name, got.Schedules, got.Runs, got.Aborts, want.Schedules, want.Runs, want.Aborts)
	}
	return ""
}

// selfTest checks that the oracle catches a wrong verdict: slot-renaming
// with n=3 outputs names in [1..4], so checking it against perfect
// renaming (names in [1..3]) must fail the job.
func selfTest(ctx context.Context) error {
	p, err := prepare(exploreJob{name: "slot-renaming-3-vs-perfect", protocol: "slot-renaming", n: 3, reduction: repro.ReductionSleepSets}, 1)
	if err != nil {
		return err
	}
	p.spec = repro.PerfectRenaming(3)
	got, err := p.explore(ctx, p.body(), p.check())
	want := jobCounts{Schedules: got.Schedules, Runs: got.Runs, Aborts: got.Aborts}
	if verdictProblem(p.name, got, want, err) == "" {
		return errors.New("a protocol checked against the wrong spec was not reported as failed")
	}
	return nil
}
