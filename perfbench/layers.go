package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro"
	"repro/internal/mem"
	"repro/internal/sample"
	"repro/internal/sched"
)

// perLayer lists the per-layer metrics a traced run reports, with units.
// Counts are per pass. A layer a workload never reaches reads 0.
var perLayer = []struct{ name, unit string }{
	{"tasks.build_ns", "ns"}, {"tasks.verify_ns", "ns"}, {"tasks.calls", "count"},
	{"sched.runs", "count"}, {"sched.aborts", "count"}, {"sched.useful_ratio", "ratio"},
	{"sched.ns_per_run", "ns"}, {"sched.allocs_per_run", "count"}, {"sched.steps_per_run", "count"},
	{"sched.handoff_ns", "ns"}, {"mem.op_ns.atomic", "ns"}, {"mem.op_ns.regular", "ns"},
	{"sched.indep_ns", "ns"}, {"sched.foata_ns", "ns"},
	{"sample.decide_ns", "ns"}, {"sample.coverage", "ratio"},
	{"campaign.ckpt_writes", "count"}, {"campaign.ckpt_write_s", "s"}, {"campaign.ckpt_share", "ratio"}, {"campaign.merge_s", "s"},
	{"fleet.uploads", "count"}, {"fleet.upload_mb", "MB"}, {"fleet.upload_ms.p50", "ms"}, {"fleet.upload_ms.tail", "ms"},
	{"fleet.request_errors", "count"}, {"fleet.lease_wait_s", "s"}, {"fleet.merge_wait_s", "s"},
	{"bench.unattributed_frac", "ratio"}, {"bench.trace_overhead_frac", "ratio"},
}

func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	return out
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// nsPer times f, which performs ops operations, in five batches of at
// least 20ms each and returns the median nanoseconds per operation.
func nsPer(ops int, f func()) float64 {
	var per []float64
	for range 5 {
		iters := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			f()
			iters++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(iters*ops))
	}
	return median(per)
}

// probeHandoff is the cost of one scheduler step: a reused runner under
// round-robin, where every step is a trivial Exec.
func probeHandoff() float64 {
	const n, k = 3, 1000
	r := repro.NewRunner(n, repro.DefaultIDs(n), nil, repro.WithReuse())
	defer r.Close()
	op := func() any { return nil }
	body := func(p *repro.Proc) {
		for range k {
			p.Exec("probe.noop", op)
		}
	}
	return nsPer(n*k, func() {
		r.Reset(repro.NewRoundRobinPolicy())
		if _, err := r.Run(body); err != nil {
			panic(err)
		}
	})
}

// probeMem is the cost of one mem.Array step under a memory model — a
// write, a read and a snapshot per round on a reused runner — minus the
// scheduler handoff every step also pays.
func probeMem(model string, handoff float64) float64 {
	m, err := repro.MemModelByName(model)
	if err != nil {
		panic(err)
	}
	const n, k = 3, 300
	r := repro.NewRunner(n, repro.DefaultIDs(n), nil, repro.WithReuse(), repro.WithModel(m))
	defer r.Close()
	a := mem.NewArray[int]("A", n)
	body := func(p *repro.Proc) {
		for i := range k {
			a.Write(p, i)
			a.Read(p, (p.Index()+1)%n)
			a.Snapshot(p)
		}
	}
	run := func() int {
		r.Reset(repro.NewRoundRobinPolicy())
		res, err := r.Run(body)
		if err != nil {
			panic(err)
		}
		return res.Steps
	}
	return nsPer(run(), func() { run() }) - handoff
}

// sampleRun is a verified run copied during a traced phase, with the
// spec it was checked against.
type sampleRun struct {
	spec repro.Spec
	res  repro.RunResult
}

// probeIndep is the cost of one OpIndependent query over op-label pairs
// of nearby steps of distinct processes in the sampled schedules.
func probeIndep(runs []sampleRun) float64 {
	type pair struct {
		pa, pb int
		a, b   string
	}
	var pairs []pair
	for _, r := range runs {
		s := r.res.Schedule
		for i := range s {
			for j := i + 1; j < min(i+4, len(s)); j++ {
				if s[i].Proc != s[j].Proc && len(pairs) < 4096 {
					pairs = append(pairs, pair{s[i].Proc, s[j].Proc, s[i].Op, s[j].Op})
				}
			}
		}
	}
	if len(pairs) == 0 {
		return 0
	}
	return nsPer(len(pairs), func() {
		for _, p := range pairs {
			if repro.OpIndependent(p.pa, p.a, p.pb, p.b) {
				sink++
			}
		}
	})
}

// probeFoata is the cost of CanonicalTraceHash per sampled schedule.
func probeFoata(runs []sampleRun) float64 {
	if len(runs) == 0 {
		return 0
	}
	return nsPer(len(runs), func() {
		for _, r := range runs {
			sink ^= repro.CanonicalTraceHash(r.res.Schedule, repro.OpIndependent)
		}
	})
}

// probeVerify is the cost of VerifyResult per sampled run.
func probeVerify(runs []sampleRun) float64 {
	if len(runs) == 0 {
		return 0
	}
	for _, r := range runs {
		if err := repro.VerifyResult(r.spec, &r.res); err != nil {
			panic(fmt.Sprintf("sampled run no longer verifies: %v", err))
		}
	}
	return nsPer(len(runs), func() {
		for i := range runs {
			if repro.VerifyResult(runs[i].spec, &runs[i].res) == nil {
				sink++
			}
		}
	})
}

// decideSteps counts the decide steps of the sampled schedules and all
// their steps: the other steps are mem or oracle-object operations.
func decideSteps(runs []sampleRun) (decides, steps int) {
	for _, r := range runs {
		for _, s := range r.res.Schedule {
			if s.Op == "decide" {
				decides++
			}
		}
		steps += r.res.Steps
	}
	return decides, steps
}

func (w *exploreWorkload) layers(ctx context.Context, tr *tracer, ph phase) (map[string]metric, error) {
	passes := float64(len(ph.passes))
	handoff := probeHandoff()
	memCost := map[string]float64{"atomic": probeMem("atomic", handoff), "regular": probeMem("regular", handoff)}

	var runs, aborts, schedules, steps, checks, builds, exploreNS, buildNS int64
	var all []sampleRun
	var attributed float64 // ns, summed over jobs
	for _, name := range tr.order {
		jt := tr.jobs[name]
		var js []sampleRun
		for _, r := range jt.samples {
			js = append(js, sampleRun{jt.prep.spec, r})
		}
		all = append(all, js...)
		runs += jt.Runs
		aborts += jt.Aborts
		schedules += jt.Schedules
		steps += jt.Steps
		checks += jt.Check.Count
		builds += jt.Build.Count
		exploreNS += jt.ExploreNS
		buildNS += jt.Build.SumNS

		model := jt.prep.model
		if model == "" {
			model = "atomic"
		}
		d, s := decideSteps(js)
		memFrac := 1.0
		if s > 0 {
			memFrac = 1 - float64(d)/float64(s)
		}
		attributed += float64(jt.Build.SumNS) + float64(jt.Check.Count)*probeVerify(js) +
			float64(jt.Steps)*(handoff+memFrac*memCost[model])
	}
	vals := map[string]float64{
		"tasks.build_ns":       float64(buildNS) / float64(builds),
		"tasks.verify_ns":      probeVerify(all),
		"tasks.calls":          float64(builds) / passes,
		"sched.runs":           float64(runs) / passes,
		"sched.aborts":         float64(aborts) / passes,
		"sched.useful_ratio":   float64(schedules) / float64(runs),
		"sched.ns_per_run":     float64(exploreNS) / float64(runs),
		"sched.allocs_per_run": float64(ph.mallocs) / float64(runs),
		"sched.steps_per_run":  float64(steps) / float64(checks),
		"sched.handoff_ns":     handoff,
		"mem.op_ns.atomic":     memCost["atomic"],
		"mem.op_ns.regular":    memCost["regular"],
		"sched.indep_ns":       probeIndep(all),
		"sched.foata_ns":       probeFoata(all),
	}
	vals["bench.unattributed_frac"] = 1 - attributed/float64(exploreNS)
	fmt.Printf("reconciliation: %.0f of %.0f ns per run attributed to build, verify, handoff and mem steps of verified runs; POR decisions, independence queries and aborted runs stay unattributed\n",
		attributed/float64(runs), float64(exploreNS)/float64(runs))
	return layerMetrics(vals), nil
}

// decision is one recorded scheduling decision's input.
type decision struct {
	pending []int
	stepNo  int
}

// recorder wraps a sampler policy and records its inputs.
type recorder struct {
	inner repro.Policy
	log   []decision
}

func (r *recorder) Next(pending []int, stepNo int) sched.Decision {
	r.log = append(r.log, decision{slices.Clone(pending), stepNo})
	return r.inner.Next(pending, stepNo)
}

// replayRuns is how many run indices of each campaign the sampler
// replay probe re-executes.
const replayRuns = 2000

// replayed is what the sampler replay measured for one campaign.
type replayed struct {
	buildNS, builds, steps int64
	runs                   []sampleRun // a sample of the replayed runs
	decideNS               float64
}

// replay re-executes the first replayRuns runs of a campaign with the
// seeds the campaign derived for them (DeriveRunSeed), timing the build
// callback, copying a sample of runs, and recording every scheduling
// decision. It then times the sampler policy alone by feeding fresh
// policies the recorded inputs; that cost includes building the policy,
// amortized over its decisions.
func replay(c fleetCampaign, seed int64) (replayed, error) {
	var out replayed
	spec, build, err := repro.SelectProtocol(fleetProtocol, fleetN, seed)
	if err != nil {
		return out, err
	}
	ids := repro.DefaultIDs(fleetN)
	policy := func(i int) repro.Policy { return repro.NewRandomPolicy(repro.DeriveRunSeed(seed, i)) }
	if c.mode == "pct" {
		horizon := sample.ProbeHorizon(fleetN, ids, 4096*fleetN, func() sched.Body { return repro.SolverBody(build(fleetN)) })
		policy = func(i int) repro.Policy {
			return repro.NewPCTPolicy(repro.DeriveRunSeed(seed, i), fleetN, sample.DefaultDepth, horizon)
		}
	}
	runner := repro.NewRunner(fleetN, ids, nil, repro.WithReuse())
	defer runner.Close()
	logs := make([][]decision, replayRuns)
	for i := range replayRuns {
		t0 := time.Now()
		body := repro.SolverBody(build(fleetN))
		out.buildNS += time.Since(t0).Nanoseconds()
		out.builds++
		rec := &recorder{inner: policy(i)}
		runner.Reset(rec)
		res, rerr := runner.Run(body)
		if rerr != nil {
			return out, rerr
		}
		if verr := repro.VerifyResult(spec, res); verr != nil {
			return out, verr
		}
		out.steps += int64(res.Steps)
		if i%(replayRuns/maxSamples+1) == 0 {
			out.runs = append(out.runs, sampleRun{spec, copyResult(res)})
		}
		logs[i] = rec.log
	}
	var decisions int
	for _, l := range logs {
		decisions += len(l)
	}
	out.decideNS = nsPer(decisions, func() {
		for i, l := range logs {
			p := policy(i)
			for _, d := range l {
				sink += uint64(p.Next(d.pending, d.stepNo).Proc)
			}
		}
	})
	return out, nil
}

func (w *fleetWorkload) layers(ctx context.Context, tr *tracer, ph phase) (map[string]metric, error) {
	passes := float64(len(tr.fleet))
	handoff := probeHandoff()
	memAtomic := probeMem("atomic", handoff)

	var runs, classes, ckptWrites int64
	var ckptSum, busy, leaseWait, mergeWait float64
	var nLease, nMerge int
	for _, p := range tr.fleet {
		for _, c := range p.Campaigns {
			runs += c.Runs
			classes += c.Classes
			ckptWrites += c.CkptCount
			ckptSum += c.CkptSum
			for i := range c.ShardBusy {
				busy += c.ShardBusy[i]
				leaseWait += c.LeaseWait[i]
				nLease++
			}
			mergeWait += c.MergeWait
			nMerge++
		}
	}
	var uploads, errs int64
	var uploadBytes int64
	var uploadMS []float64
	for _, q := range tr.done {
		if q.Status >= 400 {
			errs++
		}
		if q.Kind == "upload" {
			uploads++
			uploadBytes += q.Bytes
			uploadMS = append(uploadMS, q.DurMS)
		}
	}
	slices.Sort(uploadMS)
	tailP, tail := tailPercentile(uploadMS)
	fmt.Printf("fleet.upload_ms.tail is p%g over %d uploads\n", tailP*100, len(uploadMS))

	var buildNS, builds, steps int64
	var decide float64
	var samples []sampleRun
	for _, c := range fleetCampaigns {
		r, err := replay(c, w.seed)
		if err != nil {
			return nil, fmt.Errorf("sampler replay of %s: %w", c.name, err)
		}
		buildNS, builds, steps = buildNS+r.buildNS, builds+r.builds, steps+r.steps
		decide += r.decideNS / float64(len(fleetCampaigns))
		samples = append(samples, r.runs...)
	}
	mergeS, err := w.mergeSeconds(ctx)
	if err != nil {
		return nil, err
	}
	verify := probeVerify(samples)
	foata := probeFoata(samples)
	stepsPerRun := float64(steps) / float64(builds)
	d, s := decideSteps(samples)
	nsPerRun := busy * 1e9 / float64(runs)
	uploadS := 0.0
	for _, ms := range uploadMS {
		uploadS += ms / 1e3
	}
	attributed := float64(buildNS)/float64(builds) + verify + foata +
		stepsPerRun*(handoff+decide+(1-float64(d)/float64(s))*memAtomic) +
		(ckptSum+uploadS)*1e9/float64(runs)
	fmt.Printf("reconciliation: %.0f of %.0f ns of shard time per run attributed to build, verify, Foata hash, handoff, policy decisions, mem steps, checkpoint writes and uploads\n",
		attributed, nsPerRun)

	vals := map[string]float64{
		"tasks.build_ns":          float64(buildNS) / float64(builds),
		"tasks.verify_ns":         verify,
		"tasks.calls":             float64(builds),
		"sched.runs":              float64(runs) / passes,
		"sched.useful_ratio":      1, // every sampled run is verified
		"sched.ns_per_run":        nsPerRun,
		"sched.allocs_per_run":    float64(ph.mallocs) / float64(runs),
		"sched.steps_per_run":     stepsPerRun,
		"sched.handoff_ns":        handoff,
		"mem.op_ns.atomic":        memAtomic,
		"mem.op_ns.regular":       probeMem("regular", handoff),
		"sched.indep_ns":          probeIndep(samples),
		"sched.foata_ns":          foata,
		"sample.decide_ns":        decide,
		"sample.coverage":         float64(classes) / float64(runs),
		"campaign.ckpt_writes":    float64(ckptWrites) / passes,
		"campaign.ckpt_write_s":   ckptSum / passes,
		"campaign.ckpt_share":     ckptSum / busy,
		"campaign.merge_s":        mergeS,
		"fleet.uploads":           float64(uploads) / passes,
		"fleet.upload_mb":         float64(uploadBytes) / 1e6 / passes,
		"fleet.upload_ms.p50":     percentile(uploadMS, 0.5),
		"fleet.upload_ms.tail":    tail,
		"fleet.request_errors":    float64(errs) / passes,
		"fleet.lease_wait_s":      leaseWait / float64(nLease),
		"fleet.merge_wait_s":      mergeWait / float64(nMerge),
		"bench.unattributed_frac": 1 - attributed/nsPerRun,
	}
	return layerMetrics(vals), nil
}

// percentile reads the p-quantile of sorted xs (nearest rank).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(p*float64(len(xs)) + 0.5)
	return xs[min(max(i-1, 0), len(xs)-1)]
}

// tailPercentile picks the highest of p99.9, p99, p90 and p50 that has at
// least ten samples beyond it.
func tailPercentile(xs []float64) (float64, float64) {
	for _, p := range []float64{0.999, 0.99, 0.9} {
		if float64(len(xs))*(1-p) >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 0.5, percentile(xs, 0.5)
}
