package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/sched"
)

// fleetCampaign is one sampling campaign of the fleet-sample workload.
type fleetCampaign struct {
	name string
	mode string // fleet submission mode: walk or pct
	runs int
}

const (
	fleetProtocol = "slot-renaming"
	fleetN        = 6
	fleetShards   = 2
	// fleetCheckpointEvery is small on purpose: snapshot writes and
	// uploads then sit beside the engine runs, and the snapshot grows
	// with the class map as the campaign proceeds.
	fleetCheckpointEvery = 2000
	// fleetTick is both the coordinator's reconcile tick and the
	// workers' lease-poll interval, well below the length of a pass.
	fleetTick = 10 * time.Millisecond
	// fleetPassTimeout bounds one pass, so a wedged fleet fails the run
	// instead of hanging it.
	fleetPassTimeout = 60 * time.Second
)

// fleetCampaigns are submitted together, two shards each, so the two
// in-process workers each take one shard of each campaign.
var fleetCampaigns = []fleetCampaign{
	{name: "walk", mode: "walk", runs: 100000},
	{name: "pct", mode: "pct", runs: 100000},
}

func (c fleetCampaign) submission(seed int64) repro.FleetSubmission {
	return repro.FleetSubmission{
		Schema: repro.FleetSchema, Protocol: fleetProtocol, N: fleetN, Mode: c.mode,
		Runs: c.runs, Seed: seed, Shards: fleetShards, CheckpointEvery: fleetCheckpointEvery,
	}
}

// config is the campaign configuration the fleet derives from the
// submission, as one unsharded campaign (or, with of > 1, the merge
// configuration of the sharded one).
func (c fleetCampaign) config(seed int64, path string, of int) (repro.CampaignConfig, error) {
	spec, build, err := repro.SelectProtocol(fleetProtocol, fleetN, seed)
	if err != nil {
		return repro.CampaignConfig{}, err
	}
	opts := repro.ExploreOptions{Seed: seed, SampleRuns: c.runs}
	if c.mode == "pct" {
		opts.SampleMode = repro.SamplePCT
	}
	return repro.CampaignConfig{
		Protocol: fleetProtocol, Spec: spec, IDs: repro.DefaultIDs(fleetN), Opts: opts, Build: build,
		Of: of, CheckpointEvery: fleetCheckpointEvery, Path: path,
	}, nil
}

func countsOfReport(rep repro.CampaignReport) campaignCounts {
	c := campaignCounts{Schedules: int64(rep.Schedules), Classes: int64(rep.Classes), Violation: rep.Violation}
	if rep.Stats != nil {
		c.Runs = rep.Stats.Counters[sched.MetricRuns]
	}
	return c
}

// singleProcessCampaign runs the campaign unsharded in this process: the
// reference the fleet's merged report must equal.
func singleProcessCampaign(ctx context.Context, c fleetCampaign, seed int64, path string) (campaignCounts, error) {
	cfg, err := c.config(seed, path, 1)
	if err != nil {
		return campaignCounts{}, err
	}
	cfg.Force = true
	rep, err := repro.RunCampaign(ctx, cfg)
	if err != nil && rep.Violation == "" {
		return campaignCounts{}, err
	}
	return countsOfReport(rep), nil
}

// fleetWorkload runs an in-process coordinator on loopback with two
// in-process workers, and submits the sampling campaigns to it.
type fleetWorkload struct {
	seed int64
	ref  *reference
	dir  string
	gen  int

	coord   *repro.FleetCoordinator
	api     http.Handler // the coordinator's handler behind the timing middleware
	srv     *http.Server
	cancel  context.CancelFunc
	workers sync.WaitGroup // worker.Run goroutines
	serving sync.WaitGroup // the HTTP server goroutine
	data    string

	// tr is the tracer the middleware records into; nil when untraced.
	tr   atomic.Pointer[tracer]
	last []fleetOutcome // the latest pass's campaigns
}

// fleetOutcome is one campaign of one pass.
type fleetOutcome struct {
	c      fleetCampaign
	id     string
	status repro.FleetCampaignStatus
	submit time.Time
	done   time.Time
}

func newFleetWorkload(seed int64, ref *reference, dir string) *fleetWorkload {
	return &fleetWorkload{seed: seed, ref: ref, dir: dir}
}

func (w *fleetWorkload) setup(ctx context.Context) error {
	for _, c := range fleetCampaigns {
		if _, ok := w.ref.campaign(w.seed, c.name); !ok {
			return fmt.Errorf("reference.json has no counts for campaign %s at input seed %d", c.name, w.seed)
		}
		sub := c.submission(w.seed)
		if err := sub.Validate(); err != nil {
			return err
		}
	}
	w.gen++
	root := filepath.Join(w.dir, fmt.Sprintf("fleet%d", w.gen))
	w.data = filepath.Join(root, "data")
	coord, err := repro.NewFleetCoordinator(repro.FleetCoordinatorConfig{DataDir: w.data, ReconcileEvery: fleetTick})
	if err != nil {
		return err
	}
	w.coord = coord
	w.api = w.middleware(coord.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return err
	}
	w.srv = &http.Server{Handler: w.api}
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		_ = w.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()

	wctx, cancel := context.WithCancel(ctx)
	w.cancel = cancel
	for i := 0; i < 2; i++ {
		worker, err := repro.NewFleetWorker(repro.FleetWorkerConfig{
			Coordinator: "http://" + ln.Addr().String(), Name: fmt.Sprintf("bench%d", i),
			WorkDir: filepath.Join(root, fmt.Sprintf("worker%d", i)), PollEvery: fleetTick,
		})
		if err != nil {
			w.close()
			return err
		}
		w.workers.Add(1)
		go func() {
			defer w.workers.Done()
			_ = worker.Run(wctx) // a drained worker returns nil
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st repro.FleetStatus
		if err := w.get("/status", &st); err != nil {
			w.close()
			return err
		}
		if len(st.Workers) == 2 {
			break
		}
		if time.Now().After(deadline) {
			w.close()
			return errors.New("fleet workers did not register within 30s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if err := w.warm(ctx); err != nil {
		w.close()
		return fmt.Errorf("warm-up campaign: %w", err)
	}
	return nil
}

// warmCampaign runs once through the whole fleet during set-up: both
// workers lease a shard, run, checkpoint and upload, and the coordinator
// merges, before anything is timed.
var warmCampaign = fleetCampaign{name: "warm", mode: "walk", runs: 400}

func (w *fleetWorkload) warm(ctx context.Context) error {
	o := w.run(ctx, []fleetCampaign{warmCampaign})[0]
	if o.status.Report == nil {
		return fmt.Errorf("campaign %s: %s %s", o.id, o.status.State, o.status.Error)
	}
	if got := countsOfReport(*o.status.Report); got.Runs != int64(warmCampaign.runs) || got.Violation != "" {
		return fmt.Errorf("campaign %s: %+v", o.id, got)
	}
	return nil
}

func (w *fleetWorkload) close() {
	if w.cancel != nil {
		w.cancel()
	}
	w.workers.Wait() // a drained worker has deregistered
	if w.srv != nil {
		// Close, not Shutdown: Shutdown waits up to 5s for connections a
		// client dialed but never used, and the workers are gone.
		_ = w.srv.Close()
	}
	w.serving.Wait()
	if w.coord != nil {
		w.coord.Close()
	}
	w.coord, w.srv, w.cancel = nil, nil, nil
	if w.data != "" {
		os.RemoveAll(filepath.Dir(w.data))
	}
}

// get reads a coordinator endpoint in-process, through Handler().
func (w *fleetWorkload) get(path string, out any) error {
	rec := httptest.NewRecorder()
	w.coord.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// submit posts a campaign in-process through the traced handler.
func (w *fleetWorkload) submit(sub repro.FleetSubmission) (string, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return "", err
	}
	rec := httptest.NewRecorder()
	w.api.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/campaigns", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("submit: %d %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// statusPoll is how often a waiting client reads campaign status.
const statusPoll = 2 * time.Millisecond

// run submits the campaigns together and waits, up to fleetPassTimeout,
// until each has a verdict or has failed. A campaign whose submission
// failed, or that has no verdict in time, comes back without a report.
func (w *fleetWorkload) run(ctx context.Context, campaigns []fleetCampaign) []fleetOutcome {
	ctx, cancel := context.WithTimeout(ctx, fleetPassTimeout)
	defer cancel()
	out := make([]fleetOutcome, len(campaigns))
	pending := len(out)
	for i, c := range campaigns {
		out[i] = fleetOutcome{c: c, submit: time.Now()}
		id, err := w.submit(c.submission(w.seed))
		if err != nil {
			out[i].status.Error = err.Error()
			out[i].done = time.Now()
			pending--
		}
		out[i].id = id
	}
	for pending > 0 && ctx.Err() == nil {
		time.Sleep(statusPoll)
		for i := range out {
			o := &out[i]
			if !o.done.IsZero() {
				continue
			}
			if err := w.get("/v1/campaigns/"+o.id, &o.status); err != nil {
				o.status.Error = err.Error()
			}
			if o.status.Done || o.status.Error != "" || o.status.State == "failed" {
				o.done = time.Now()
				pending--
			}
		}
	}
	return out
}

func (w *fleetWorkload) pass(ctx context.Context, tr *tracer) passResult {
	var res passResult
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	root := tr.begin("pass", 0, "")
	st := newScaledTimer()
	t0 := time.Now()
	out := w.run(ctx, fleetCampaigns)
	res.wall = time.Since(t0)
	res.jobs = []float64{st.scale(res.wall)}

	for _, o := range out {
		res.attempted++
		want, _ := w.ref.campaign(w.seed, o.c.name)
		var got campaignCounts
		if o.status.Report != nil {
			got = countsOfReport(*o.status.Report)
		}
		res.schedules += got.Schedules
		res.classes += got.Classes
		switch {
		case o.done.IsZero():
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("campaign %s (%s): no verdict within %s", o.id, o.c.name, fleetPassTimeout))
		case o.status.Error != "" || o.status.Report == nil:
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("campaign %s (%s): %s %s", o.id, o.c.name, o.status.State, o.status.Error))
		case got != want:
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("campaign %s (%s): merged %+v, reference %+v", o.id, o.c.name, got, want))
		}
	}
	w.last = out
	tr.fleetPass(root, out)
	tr.end(root)
	return res
}

// shardPaths are the coordinator's copies of a campaign's final shard
// snapshots.
func (w *fleetWorkload) shardPaths(id string) []string {
	var paths []string
	for s := 0; s < fleetShards; s++ {
		paths = append(paths, filepath.Join(w.data, id, fmt.Sprintf("shard%d.ckpt", s)))
	}
	return paths
}

// mergeSeconds times campaign.Merge on the final shard snapshots of the
// latest pass's campaigns and returns the mean seconds per merge.
func (w *fleetWorkload) mergeSeconds(ctx context.Context) (float64, error) {
	var total time.Duration
	for _, o := range w.last {
		cfg, err := o.c.config(w.seed, "", fleetShards)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		rep, err := campaign.Merge(ctx, cfg, w.shardPaths(o.id))
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("merge %s: %w", o.id, err)
		}
		if want, _ := w.ref.campaign(w.seed, o.c.name); countsOfReport(rep) != want {
			return 0, fmt.Errorf("merge %s: %+v, reference %+v", o.id, countsOfReport(rep), want)
		}
	}
	return total.Seconds() / float64(len(w.last)), nil
}
