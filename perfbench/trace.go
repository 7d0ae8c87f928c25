package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/sched"
)

// tracer keeps the spans and aggregated layer counts of a traced phase in
// memory; write stores them once, at the end of the run. Every method
// tolerates a nil tracer (untraced passes).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	jobs  map[string]*jobTrace
	order []string
	// reqs are the current fleet pass's requests; fleetPass moves them
	// to done.
	reqs  []request
	done  []request
	fleet []fleetPassTrace
}

// span is one interval at a boundary the benchmark owns. Parent is the
// index+1 of the enclosing span (0: none); Key names the job, or the
// campaign and shard a fleet request belongs to.
type span struct {
	Name    string  `json:"name"`
	Key     string  `json:"key,omitempty"`
	Parent  int     `json:"parent"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), jobs: map[string]*jobTrace{}}
}

func (t *tracer) at(x time.Time) float64 { return float64(x.Sub(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, key string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.at(time.Now())
	t.spans = append(t.spans, span{Name: name, Key: key, Parent: parent, StartMS: now, EndMS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndMS = t.at(time.Now())
}

// add records a finished interval.
func (t *tracer) add(name string, parent int, key string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Key: key, Parent: parent, StartMS: t.at(start), EndMS: t.at(end)})
	return len(t.spans)
}

// hist is a log2-bucketed latency histogram: bucket i counts durations
// in [2^(i-1), 2^i) ns.
type hist struct {
	Count   int64     `json:"count"`
	SumNS   int64     `json:"sum_ns"`
	Buckets [40]int64 `json:"log2_ns_buckets"`
}

func (h *hist) observe(d time.Duration) {
	ns := max(d.Nanoseconds(), 0)
	h.Count++
	h.SumNS += ns
	h.Buckets[min(bits.Len64(uint64(ns)), len(h.Buckets)-1)]++
}

// jobTrace aggregates one explore job's per-run build and check calls
// (counts and histograms, never one span per run) and keeps a sample of
// the verified runs as probe inputs.
type jobTrace struct {
	prep      *preparedJob
	Build     hist  `json:"build"`
	Check     hist  `json:"check"`
	Steps     int64 `json:"steps"`
	Runs      int64 `json:"runs"`
	Aborts    int64 `json:"aborts"`
	Schedules int64 `json:"schedules"`
	ExploreNS int64 `json:"explore_ns"`
	started   time.Time
	samples   []repro.RunResult
	sampleGap int64
}

// maxSamples bounds the verified runs a job keeps for the probes.
const maxSamples = 512

func (t *tracer) job(p *preparedJob) *jobTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	jt, ok := t.jobs[p.name]
	if !ok {
		gap := max(p.want.Schedules/maxSamples, 1)
		jt = &jobTrace{prep: p, sampleGap: gap}
		t.jobs[p.name] = jt
		t.order = append(t.order, p.name)
	}
	return jt
}

// wrap times the job's build and check callbacks and copies a sample of
// the checked runs (schedules with their op labels, and outputs).
func (jt *jobTrace) wrap(build func() sched.Body, check func(*repro.RunResult) error) (func() sched.Body, func(*repro.RunResult) error) {
	tb := func() sched.Body {
		t0 := time.Now()
		b := build()
		jt.Build.observe(time.Since(t0))
		return b
	}
	tc := func(r *repro.RunResult) error {
		t0 := time.Now()
		err := check(r)
		jt.Check.observe(time.Since(t0))
		jt.Steps += int64(r.Steps)
		if jt.Check.Count%jt.sampleGap == 0 && len(jt.samples) < maxSamples {
			jt.samples = append(jt.samples, copyResult(r))
		}
		return err
	}
	return tb, tc
}

func copyResult(r *repro.RunResult) repro.RunResult {
	return repro.RunResult{
		Outputs:  append([]int(nil), r.Outputs...),
		Decided:  append([]bool(nil), r.Decided...),
		Crashed:  append([]bool(nil), r.Crashed...),
		Schedule: append([]sched.Step(nil), r.Schedule...),
		Steps:    r.Steps,
	}
}

func (jt *jobTrace) start() {
	if jt != nil {
		jt.started = time.Now()
	}
}

func (jt *jobTrace) stop(got jobCounts) {
	if jt == nil {
		return
	}
	jt.ExploreNS += time.Since(jt.started).Nanoseconds()
	jt.Runs += got.Runs
	jt.Aborts += got.Aborts
	jt.Schedules += got.Schedules
}

// request is one coordinator HTTP request seen by the middleware.
type request struct {
	Kind     string  `json:"kind"`
	Campaign string  `json:"campaign,omitempty"`
	Shard    int     `json:"shard"`
	StartMS  float64 `json:"start_ms"`
	DurMS    float64 `json:"dur_ms"`
	Status   int     `json:"status"`
	Bytes    int64   `json:"bytes"`
	Done     bool    `json:"done,omitempty"` // an upload that finished its shard
	start    time.Time
	end      time.Time
}

// fleetPassTrace is one fleet pass's campaigns with their shard spans.
type fleetPassTrace struct {
	Campaigns []fleetCampaignTrace `json:"campaigns"`
}

type fleetCampaignTrace struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Runs      int64     `json:"runs"`
	Classes   int64     `json:"classes"`
	LeaseWait []float64 `json:"lease_wait_s"`
	ShardBusy []float64 `json:"shard_busy_s"`
	MergeWait float64   `json:"merge_wait_s"`
	CkptCount int64     `json:"ckpt_writes"`
	CkptSum   float64   `json:"ckpt_write_s"`
}

// middleware wraps the coordinator's handler: with a tracer attached,
// every request becomes a span keyed by its campaign and shard.
func (w *fleetWorkload) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		if tr == nil {
			h.ServeHTTP(rw, r)
			return
		}
		kind := requestKind(r)
		rec := &recordingWriter{ResponseWriter: rw, status: http.StatusOK, keep: kind == "lease" || kind == "upload"}
		t0 := time.Now()
		h.ServeHTTP(rec, r)
		t1 := time.Now()
		q := request{Kind: kind, Status: rec.status, Bytes: max(r.ContentLength, 0), Shard: -1,
			StartMS: tr.at(t0), DurMS: float64(t1.Sub(t0).Nanoseconds()) / 1e6, start: t0, end: t1}
		// /v1/campaigns/{id}/shards/{shard}/snapshot
		if parts := strings.Split(r.URL.Path, "/"); kind == "upload" && len(parts) == 7 {
			q.Campaign = parts[3]
			if _, err := fmt.Sscan(parts[5], &q.Shard); err != nil {
				q.Shard = -1
			}
		}
		switch kind {
		case "lease":
			var lr struct {
				Task struct {
					CampaignID string `json:"campaign_id"`
					Shard      int    `json:"shard"`
				} `json:"task"`
			}
			if rec.status == http.StatusOK && json.Unmarshal(rec.body.Bytes(), &lr) == nil {
				q.Campaign, q.Shard = lr.Task.CampaignID, lr.Task.Shard
			} else {
				q.Campaign = ""
			}
		case "upload":
			var ur struct {
				Done bool `json:"done"`
			}
			q.Done = json.Unmarshal(rec.body.Bytes(), &ur) == nil && ur.Done
		}
		tr.mu.Lock()
		tr.reqs = append(tr.reqs, q)
		tr.mu.Unlock()
	})
}

func requestKind(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/snapshot"):
		return "upload"
	case strings.HasSuffix(p, "/lease"):
		return "lease"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(p, "/release"):
		return "release"
	case strings.HasSuffix(p, "/fail"):
		return "fail"
	case p == "/v1/workers" || r.Method == http.MethodDelete:
		return "register"
	case p == "/v1/campaigns" && r.Method == http.MethodPost:
		return "submit"
	}
	return "read"
}

type recordingWriter struct {
	http.ResponseWriter
	status int
	keep   bool
	body   bytes.Buffer
}

func (w *recordingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	if w.keep {
		w.body.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

// fleetPass turns one pass's requests into spans — pass → campaign →
// shard (lease to final upload) → request, plus each campaign's merge
// wait — and records the pass's per-campaign figures.
func (t *tracer) fleetPass(root int, out []fleetOutcome) {
	if t == nil {
		return
	}
	t.mu.Lock()
	reqs := t.reqs
	t.reqs = nil
	t.mu.Unlock()

	var pt fleetPassTrace
	for _, o := range out {
		ct := fleetCampaignTrace{ID: o.id, Name: o.c.name}
		if o.status.Report != nil {
			got := countsOfReport(*o.status.Report)
			ct.Runs, ct.Classes = got.Runs, got.Classes
			if s := o.status.Report.Stats; s != nil {
				h := s.Histograms[campaign.MetricCheckpointSeconds]
				ct.CkptCount, ct.CkptSum = h.Count, h.Sum
			}
		}
		cspan := t.add("campaign", root, o.id+" "+o.c.name, o.submit, o.done)
		var lastDone time.Time
		for s := 0; s < fleetShards; s++ {
			key := fmt.Sprintf("%s/%d", o.id, s)
			var leased, finished time.Time
			for _, q := range reqs {
				if q.Campaign != o.id || q.Shard != s {
					continue
				}
				if q.Kind == "lease" && leased.IsZero() {
					leased = q.end
				}
				if q.Kind == "upload" && q.Done {
					finished = q.end
				}
			}
			if leased.IsZero() || finished.IsZero() {
				continue
			}
			ct.LeaseWait = append(ct.LeaseWait, leased.Sub(o.submit).Seconds())
			ct.ShardBusy = append(ct.ShardBusy, finished.Sub(leased).Seconds())
			sspan := t.add("shard", cspan, key, leased, finished)
			for _, q := range reqs {
				if q.Campaign == o.id && q.Shard == s {
					t.add(q.Kind, sspan, key, q.start, q.end)
				}
			}
			if finished.After(lastDone) {
				lastDone = finished
			}
		}
		if !lastDone.IsZero() {
			ct.MergeWait = o.done.Sub(lastDone).Seconds()
			t.add("merge_wait", cspan, o.id, lastDone, o.done)
		}
		pt.Campaigns = append(pt.Campaigns, ct)
	}
	// Requests not tied to a shard (registration, heartbeats, empty
	// leases, submissions) hang off the pass.
	for _, q := range reqs {
		if q.Shard < 0 {
			t.add(q.Kind, root, q.Campaign, q.start, q.end)
		}
	}
	t.mu.Lock()
	t.fleet = append(t.fleet, pt)
	t.done = append(t.done, reqs...)
	t.mu.Unlock()
}

// selfTimes derives each span name's total and self time (duration minus
// the union of its children's intervals). Explore spans additionally
// subtract the aggregated build and check time of their job, which runs
// inside them without a span per call.
func (t *tracer) selfTimes() map[string][2]float64 {
	children := make([][]span, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string][2]float64{}
	for i, s := range t.spans {
		self := (s.EndMS - s.StartMS) - covered(s, children[i+1])
		if jt, ok := t.jobs[s.Key]; ok && s.Name == "explore" && jt.ExploreNS > 0 {
			// The job's callbacks are aggregated, not spans: charge each
			// explore span its share of them by duration.
			share := (s.EndMS - s.StartMS) / (float64(jt.ExploreNS) / 1e6)
			self -= share * float64(jt.Build.SumNS+jt.Check.SumNS) / 1e6
		}
		v := out[s.Name]
		v[0] += (s.EndMS - s.StartMS) / 1e3
		v[1] += self / 1e3
		out[s.Name] = v
	}
	var cb float64
	for _, jt := range t.jobs {
		cb += float64(jt.Build.SumNS+jt.Check.SumNS) / 1e9
	}
	if cb > 0 {
		out["build+check (aggregated)"] = [2]float64{cb, cb}
	}
	return out
}

// covered is how much of parent's interval its children cover.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartMS, parent.StartMS), min(k.EndMS, parent.EndMS)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB float64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

func (t *tracer) printSelfTimes() {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("span                      total_s     self_s")
	for _, k := range names {
		fmt.Printf("%-24s %8.3f   %8.3f\n", k, st[k][0], st[k][1])
	}
}

// write stores the trace — environment, spans, per-job histograms, fleet
// passes and self times — as one JSON file.
func (t *tracer) write(path string, env envStamp) error {
	doc := struct {
		Env       envStamp              `json:"env"`
		Spans     []span                `json:"spans"`
		Jobs      map[string]*jobTrace  `json:"jobs,omitempty"`
		Fleet     []fleetPassTrace      `json:"fleet,omitempty"`
		Requests  []request             `json:"requests,omitempty"`
		SelfTimes map[string][2]float64 `json:"self_times_s"`
	}{env, t.spans, t.jobs, t.fleet, t.done, t.selfTimes()}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
