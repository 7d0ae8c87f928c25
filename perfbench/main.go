// Command perfbench is the repository's time-to-verdict benchmark: how
// long the engine takes to answer "does this protocol solve this GSB
// task?" under exhaustive search, sleep-set partial-order reduction, and
// fleet-distributed statistical sampling. README.md in this directory
// explains the workloads and the metrics; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload por --seed 1 --seconds 30 --trace 0
//
// Every verdict and every deterministic count is checked against
// reference.json; the last line of standard output is one JSON object
// with the run's metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one cold start does not decide it.
const setupReps = 15

// inputSeeds are the protocol and campaign seeds a run draws its inputs
// from: --seed selects inputSeeds[seed mod 8], and reference.json holds
// the exact expected counts for each. A seed picks the oracle boxes'
// draws and the sampling campaigns' run seeds; these are the seeds whose
// renaming-wsb n=3 tree has 441,534 schedules (other seeds give 432,276
// or 802,956), so every run of a workload does the same amount of work.
var inputSeeds = []int64{2, 3, 5, 7, 10, 14, 15, 18}

// workload is one benchmark workload: a set of verification jobs run
// back to back by one closed-loop client.
type workload interface {
	// setup resolves the workload's protocols and inputs, warms one run,
	// and starts whatever services the jobs need.
	setup(ctx context.Context) error
	// pass runs every job once, back to back, and checks each verdict.
	// A non-nil tracer records spans and layer counts.
	pass(ctx context.Context, tr *tracer) passResult
	// layers derives the per-layer metrics from a traced phase.
	layers(ctx context.Context, tr *tracer, ph phase) (map[string]metric, error)
	close()
}

// passResult is one pass over a workload's jobs.
type passResult struct {
	wall time.Duration
	// jobs holds each job's time in seconds scaled to the reference
	// host speed (hostprobe.go); on fleet-sample, whose campaigns run
	// together, the whole pass is one entry.
	jobs      []float64
	schedules int64 // verified schedules (trace-class representatives under POR, sampled runs)
	classes   int64 // distinct trace classes covered
	attempted int
	failed    int
	problems  []string
}

// phase aggregates the passes of one measuring phase.
type phase struct {
	passes  []passResult
	mallocs uint64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: exhaustive, por or fleet-sample")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measuring time per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced phase")
	mkref := flag.String("mkref", "", "recompute the reference counts for every input seed and write them to this file")
	flag.Parse()

	if *mkref != "" {
		if err := makeReference(context.Background(), *mkref); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	ctx := context.Background()
	ref, err := loadReference()
	if err != nil {
		return err
	}
	in := inputSeed(seed)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	// Checkpoints and coordinator data live here, inside the checkout.
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	// The explore workloads run one worker, on one P: their figures then
	// do not depend on the host's core count, and the garbage collector
	// never waits on a second, possibly descheduled, virtual CPU.
	var w workload
	switch name {
	case "exhaustive":
		runtime.GOMAXPROCS(1)
		w = newExploreWorkload(exhaustiveJobs, in, ref)
	case "por":
		runtime.GOMAXPROCS(1)
		w = newExploreWorkload(porJobs, in, ref)
	case "fleet-sample":
		w = newFleetWorkload(in, ref, scratch)
	default:
		return fmt.Errorf("unknown workload %q (want exhaustive, por or fleet-sample)", name)
	}

	env := stamp(name, seed, in, scratch)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	if err := selfTest(ctx); err != nil {
		return fmt.Errorf("negative self-test: %w", err)
	}
	fmt.Println("selftest: slot-renaming-3 checked against PerfectRenaming(3) is reported as a failed job")

	// Set-ups are scaled to the reference host speed like the passes.
	st := newScaledTimer()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, st.scale(time.Since(t0)))
		if i < setupReps-1 {
			w.close()
		}
	}
	defer w.close()

	res := result{Metrics: map[string]metric{}}
	if !traced {
		ph := measure(ctx, w, nil, name, seconds)
		res.Metrics = endToEnd(ph, median(setups))
		tally(&res, ph)
		printTable(name, res.Metrics)
		fmt.Printf("%-14s %-28s %14.6g ratio (%d of %d jobs errored or missed the reference)\n",
			name, "failed_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	} else {
		plain := measure(ctx, w, nil, name, seconds/2)
		tr := newTracer()
		ph := measure(ctx, w, tr, name, seconds/2)
		tally(&res, plain)
		tally(&res, ph)
		if res.Metrics, err = w.layers(ctx, tr, ph); err != nil {
			return err
		}
		res.Metrics["bench.trace_overhead_frac"] = metric{passWall(ph)/passWall(plain) - 1, "ratio"}
		printTable(name, res.Metrics)
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := tr.write(path, env); err != nil {
			return err
		}
		fmt.Printf("spans and layer histograms written to %s\n", path)
		tr.printSelfTimes()
	}
	res.Correct = res.Failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// passSeconds is the share of --seconds each pass of a workload is
// given. A run makes a fixed number of passes, seconds/passSeconds
// rounded (4, 6 and 5 at 30 s), so every run of a workload does the same
// work however fast the code is. A pass takes about 10, 5 and 6.5 s on
// the reference machine (2 CPUs, go1.24): exhaustive gets a fourth pass
// for a steadier median, and its runs measure about 40 s.
var passSeconds = map[string]float64{"exhaustive": 7.5, "por": 5, "fleet-sample": 6.5}

func passesFor(name string, seconds float64) int {
	return max(1, int(math.Round(seconds/passSeconds[name])))
}

// measure runs passes back to back, closed loop. It stops early, after
// at least one pass, when a pass fails or the phase has taken twice its
// nominal seconds, so that a broken or badly slowed program still ends
// the run in time.
func measure(ctx context.Context, w workload, tr *tracer, name string, seconds float64) phase {
	var ph phase
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	t0 := time.Now()
	for range passesFor(name, seconds) {
		p := w.pass(ctx, tr)
		ph.passes = append(ph.passes, p)
		for _, msg := range p.problems {
			fmt.Println("FAILED:", msg)
		}
		fmt.Printf("pass %d: %.3fs, %d jobs %.3f s at reference speed, peak RSS so far %.1f MB\n",
			len(ph.passes), p.wall.Seconds(), p.attempted, p.jobs, peakRSSMB())
		if p.failed > 0 || time.Since(t0).Seconds() > 2*seconds {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	ph.mallocs = ms.Mallocs - before
	return ph
}

func tally(res *result, ph phase) {
	for _, p := range ph.passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
}

// passWall is the time of a typical pass: the sum over the workload's
// jobs of each job's median time across the phase's passes.
func passWall(ph phase) float64 {
	var wall float64
	for j := range ph.passes[0].jobs {
		var ts []float64
		for _, p := range ph.passes {
			if j < len(p.jobs) {
				ts = append(ts, p.jobs[j])
			}
		}
		wall += median(ts)
	}
	return wall
}

// endToEnd derives the end-to-end metrics of an untraced phase. The
// schedule and class counts of a pass are deterministic, so the rates
// divide them by the typical pass time.
func endToEnd(ph phase, setup float64) map[string]metric {
	var sched, classes []float64
	for _, p := range ph.passes {
		sched = append(sched, float64(p.schedules))
		classes = append(classes, float64(p.classes))
	}
	wall := passWall(ph)
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"wall_s":          {wall, "s"},
		"schedules_per_s": {median(sched) / wall, "1/s"},
		"classes_per_s":   {median(classes) / wall, "1/s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

func printTable(workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-14s %-28s %14.6g %s\n", workload, k, ms[k].Value, ms[k].Unit)
	}
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func inputSeed(seed int64) int64 {
	k := int64(len(inputSeeds))
	return inputSeeds[(seed%k+k)%k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// envStamp records what a run's figures depend on besides the code, so
// that runs from mismatched environments are never compared.
type envStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	InputSeed  int64  `json:"input_seed"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Workers    string `json:"workers_per_job"`
	DataFS     string `json:"data_fs"`
}

func stamp(name string, seed, in int64, dir string) envStamp {
	workers := "1 (ExploreOptions.Workers)"
	if name == "fleet-sample" {
		workers = fmt.Sprintf("2 fleet workers, each campaign shard with GOMAXPROCS=%d engine workers", runtime.GOMAXPROCS(0))
	}
	return envStamp{
		Workload: name, Seed: seed, InputSeed: in,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workers: workers, DataFS: fsType(dir),
	}
}

// fsType names the filesystem holding dir (checkpoint and coordinator
// data dirs live under it), since snapshot writes sync to it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
