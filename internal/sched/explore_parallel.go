package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// This file is the work-distributing exploration engine: a pool of workers
// pulls schedule prefixes from a sharded frontier with work-stealing,
// re-executes the protocol under each prefix, and pushes the unexplored
// sibling prefixes back. Stateless re-execution makes the tree walk
// embarrassingly parallel: runs share nothing but the frontier, an atomic
// run budget and the violation aggregate.
//
// Determinism contract. The tree of failure-free schedules is a fixed
// object, so on a full exploration every worker count visits exactly the
// same set of schedules and the reported count is interleaving-independent.
// When the property fails, workers do not race to report whichever
// violation they saw first: each failure is aggregated under a mutex as
// the lexicographically smallest violating choice sequence, the frontier
// is pruned against that bound (prefixes that can only lead to larger
// schedules are dropped), and a final counting pass with the settled bound
// recomputes how many schedules precede the reported one. The returned
// (count, trace) pair is therefore a pure function of the protocol, the
// property and the options — never of worker interleaving. Only a budget
// exhausted mid-failure (MaxRuns smaller than the tree) can make the
// outcome scheduling-dependent, which is why budget errors are reported
// with the exact budget as the count.

// DefaultMaxRuns is the exploration run budget used when
// ExploreOptions.MaxRuns is zero.
const DefaultMaxRuns = 1 << 20

// ExploreOptions configures Explore.
type ExploreOptions struct {
	// Workers is the number of exploration goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). With more than one worker, build and check
	// must be safe for concurrent use (each run still gets its own
	// protocol instance, so protocols that allocate fresh shared memory
	// in build need no extra care).
	Workers int
	// MaxRuns bounds the number of schedules executed in exhaustive
	// exploration; beyond it the exploration stops with
	// ErrExplorationBudget. <= 0 means DefaultMaxRuns. Crash sweep mode
	// is bounded by CrashRuns instead and ignores MaxRuns.
	MaxRuns int
	// MaxSteps bounds each individual run (ErrStepBudget past it);
	// <= 0 means the Runner default of 4096*n.
	MaxSteps int
	// Seed seeds work-stealing victim selection and, in crash sweep
	// mode, the per-run crash-injection policies. Results never depend
	// on the victim-selection stream; sweep results depend on Seed only.
	Seed int64

	// CrashRuns > 0 selects crash sweep mode: instead of exhaustively
	// enumerating failure-free schedules, Explore executes CrashRuns
	// randomized schedules with crash injection, distributed over the
	// same worker pool. Seeds are derived deterministically from Seed,
	// so the sweep is reproducible and the first failing run (smallest
	// run index) is interleaving-independent.
	CrashRuns int

	// SampleRuns > 0 selects statistical sampling mode: instead of
	// enumerating the schedule tree, execute SampleRuns failure-free
	// schedules drawn by the SampleMode sampler, each seeded via
	// DeriveRunSeed(Seed, i), and report distinct-trace-class coverage.
	// Sampling is implemented by internal/sample (sample.Explore);
	// tasks.ExploreVerified dispatches there automatically, while
	// calling sched.Explore directly with SampleRuns set is an error.
	// Mutually exclusive with CrashRuns (Validate).
	SampleRuns int
	// SampleMode picks the sampler: SampleWalk (uniform over the
	// pending set each step) or SamplePCT (probabilistic concurrency
	// testing: random priorities plus Depth-1 priority-change points).
	SampleMode SampleMode
	// Depth is the PCT bug-depth knob: runs use Depth-1 priority-change
	// points, giving the classic 1/(n*k^(Depth-1)) detection guarantee
	// for bugs of that depth. <= 0 means the sample package default
	// (3); ignored by SampleWalk.
	Depth int
	// CrashProb is the per-decision crash probability in sweep mode;
	// it must lie in [0, 1] (Validate).
	CrashProb float64
	// MaxCrashes caps injected crashes per run; <= 0 means n-1 (the
	// wait-free maximum).
	MaxCrashes int

	// Model names the registered memory model runs execute under (see
	// MemModels, docs/models.md). "" or "atomic" is the default atomic
	// register semantics — bit-identical to the pre-registry engine;
	// "regular" and "safe" weaken writes into scheduler-visible
	// write-start/write-commit step pairs; "stale-snapshot" degrades
	// one-step snapshots into per-register collects. Unknown names are
	// rejected by Validate with the registered list. The model is part of
	// campaign identity (the options hash), so a checkpoint resumes only
	// under the model that produced it.
	Model string
	// Adversary names the registered crash adversary that drives sweep
	// mode (CrashRuns > 0; see Adversaries, docs/models.md). "" or
	// "uniform-crash" is the default uniform sweep; "t-resilient"
	// restricts crashes to a pre-drawn victim set of at most MaxCrashes
	// processes; "adaptive" targets the most-advanced pending process.
	// Unknown names are rejected by Validate with the registered list.
	// Ignored outside sweep mode; part of campaign identity like Model.
	Adversary string

	// Stats, when non-nil, receives engine observability counters (runs,
	// schedules, steals, aborts, prunes, frontier depth — see the Metric
	// constants and docs/metrics.md). Publishing is a handful of atomic
	// adds per run; nil disables it entirely. Stats never influences
	// results and is excluded from campaign option identity
	// (internal/campaign hashes only the semantic fields), so the same
	// checkpoint can be resumed with or without observability attached.
	Stats *stats.Registry

	// Reduction selects the partial-order reduction applied to
	// exhaustive exploration (see the Reduction constants). With
	// reduction on, the engine executes one schedule per Mazurkiewicz
	// trace class — the class's lexicographically smallest member —
	// instead of every interleaving, and the returned count is the
	// number of classes. Verdicts and the lex-min violation report are
	// unchanged; checks must not depend on the relative order of
	// commuting steps in Result.Schedule (true of every property in
	// this repository, which inspect outputs and crash flags only).
	// MaxRuns then bounds executed runs, which include pruned probe
	// runs, not only counted schedules. Crash sweep mode ignores it.
	Reduction Reduction
}

// ErrInvalidOptions reports semantically unusable ExploreOptions; Explore
// and ExploreCrashes return it (wrapped) instead of executing anything,
// so a bad CrashProb surfaces as an error rather than a panic inside a
// worker goroutine.
var ErrInvalidOptions = errors.New("sched: invalid exploration options")

// Validate checks the option fields whose bad values would otherwise
// surface only mid-exploration: a crash probability outside [0, 1],
// negative budgets, and unregistered model/adversary names (the error
// lists the registered names). Zero-valued fields mean "use the default"
// and are always valid.
func (o ExploreOptions) Validate() error {
	if o.MaxRuns < 0 {
		return fmt.Errorf("%w: MaxRuns %d is negative (0 means the default budget)", ErrInvalidOptions, o.MaxRuns)
	}
	if o.MaxSteps < 0 {
		return fmt.Errorf("%w: MaxSteps %d is negative (0 means the runner default)", ErrInvalidOptions, o.MaxSteps)
	}
	if o.CrashRuns < 0 {
		return fmt.Errorf("%w: CrashRuns %d is negative (0 disables the crash sweep)", ErrInvalidOptions, o.CrashRuns)
	}
	if math.IsNaN(o.CrashProb) || o.CrashProb < 0 || o.CrashProb > 1 {
		return fmt.Errorf("%w: CrashProb %v outside [0, 1]", ErrInvalidOptions, o.CrashProb)
	}
	if !o.Reduction.valid() {
		return fmt.Errorf("%w: unknown Reduction(%d)", ErrInvalidOptions, int(o.Reduction))
	}
	if o.SampleRuns < 0 {
		return fmt.Errorf("%w: SampleRuns %d is negative (0 disables sampling)", ErrInvalidOptions, o.SampleRuns)
	}
	if !o.SampleMode.valid() {
		return fmt.Errorf("%w: unknown SampleMode(%d)", ErrInvalidOptions, int(o.SampleMode))
	}
	if o.Depth < 0 {
		return fmt.Errorf("%w: Depth %d is negative (0 means the PCT default)", ErrInvalidOptions, o.Depth)
	}
	if o.SampleRuns > 0 && o.CrashRuns > 0 {
		return fmt.Errorf("%w: SampleRuns and CrashRuns are mutually exclusive modes", ErrInvalidOptions)
	}
	if _, err := MemModelByName(o.Model); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	if _, err := AdversaryByName(o.Adversary); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	return nil
}

func (o ExploreOptions) withDefaults(n int) ExploreOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = DefaultMaxRuns
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 4096 * n
	}
	if o.MaxCrashes <= 0 || o.MaxCrashes > n-1 {
		o.MaxCrashes = n - 1
	}
	return o
}

// Explore runs the protocol under every failure-free schedule (or, when
// opts.CrashRuns > 0, under a randomized crash-injection sweep) using a
// pool of opts.Workers goroutines, and invokes check on each completed
// run. build is called once per run and must return a fresh protocol
// instance. It returns the number of distinct schedules explored; on a
// property violation the error names the lexicographically smallest
// violating choice sequence and the count is the number of schedules up
// to and including it (both independent of worker interleaving). With
// opts.Reduction enabled the walk executes one schedule per commuting-
// step equivalence class (the class's lex-min member) and counts
// classes; verdict and violation report are unchanged.
//
// ctx cancellation aborts the exploration early; a nil ctx means
// context.Background().
func Explore(ctx context.Context, n int, ids []int, opts ExploreOptions, build func() Body, check func(*Result) error) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	if opts.SampleRuns > 0 {
		// Statistical sampling lives one layer up (internal/sample would
		// import this package back); refuse loudly rather than silently
		// running an exhaustive walk the caller did not ask for.
		return 0, fmt.Errorf("sched: SampleRuns > 0 selects statistical sampling, which is implemented by internal/sample (call sample.Explore, or tasks.ExploreVerified which dispatches)")
	}
	opts = opts.withDefaults(n)
	if opts.CrashRuns > 0 {
		return ExploreCrashes(ctx, n, ids, opts, build, check)
	}

	e := newRootExplorer(ctx, n, ids, opts, build, check, nil)
	e.runWorkers()

	if f := e.best.Load(); f != nil {
		// Deterministic aggregation: recount the schedules preceding the
		// settled lexicographic-minimum failure with a fixed bound. If the
		// discovery pass drained without exhausting MaxRuns, the recount —
		// which visits a subset of the discovery pass's prefixes — cannot
		// exhaust it either, so the count is exact; otherwise the
		// truncation is surfaced on the returned error. The recount re-runs
		// schedules the discovery pass already counted, so it publishes no
		// stats: the observed totals describe the verification work, not
		// the bookkeeping replay.
		ropts := opts
		ropts.Stats = nil
		recount := newRootExplorer(ctx, n, ids, ropts, build, nil, f.choices)
		recount.runWorkers()
		count := int(recount.countBelow.Load()) + 1
		err := f.err
		if e.budgetHit.Load() || recount.budgetHit.Load() {
			err = fmt.Errorf("%w (schedule count truncated: %w)", f.err, ErrExplorationBudget)
		} else if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("%w (schedule count truncated: exploration canceled: %w)", f.err, cerr)
		}
		return count, err
	}
	if e.budgetHit.Load() {
		count := opts.MaxRuns
		if opts.Reduction != ReductionNone {
			// Under reduction the claimed budget slots include pruned
			// probe runs; report only the schedules actually verified.
			count = int(e.completed.Load())
		}
		return count, fmt.Errorf("%w (after %d runs)", ErrExplorationBudget, opts.MaxRuns)
	}
	if err := ctx.Err(); err != nil {
		return int(e.completed.Load()), fmt.Errorf("sched: exploration canceled: %w", err)
	}
	return int(e.completed.Load()), nil
}

// exploreFailure is a failed run: a property violation or a runner error,
// keyed by its choice sequence for lexicographic aggregation.
type exploreFailure struct {
	choices []int
	err     error
}

// frontierItem is one unit of exploration work: re-execute the run
// scripted by choices and push its unexplored siblings. sleep is the
// sleep set at the node reached after choices (partial-order reduction
// only; nil when ExploreOptions.Reduction is ReductionNone).
type frontierItem struct {
	choices []int
	sleep   []int
}

// explorerPolicy is what the engine needs from a prefix-replay policy:
// schedule the run past the prefix the runner replays, then report the
// choice sequence it took and the sibling prefixes left to explore.
type explorerPolicy interface {
	replayPolicy
	runChoices() []int
	branchItems() []frontierItem
}

// exploreShard is one lane of the frontier. Its owner pushes and pops at
// the tail (depth-first, cache-warm deep prefixes); thieves take from the
// head, where the shallowest prefixes — the largest unexplored subtrees —
// sit, so one steal yields a meaningful chunk of work.
type exploreShard struct {
	mu    sync.Mutex
	items []frontierItem
}

type explorer struct {
	ctx    context.Context
	cancel context.CancelFunc
	n      int
	ids    []int
	opts   ExploreOptions
	build  func() Body
	check  func(*Result) error

	shards  []*exploreShard
	pending atomic.Int64 // prefixes queued or being processed

	claimed    atomic.Int64 // run-budget slots claimed
	completed  atomic.Int64 // runs that finished without error
	budgetHit  atomic.Bool
	countBelow atomic.Int64 // counting pass: runs lexicographically below bound

	bound []int // fixed pruning bound for the counting pass; nil during discovery

	// Checkpoint pause points (checkpoint.go). Workers stop claiming new
	// frontier items — leaving the remaining frontier collectable — when
	// pause returns true or total claimed runs reach sliceLimit; items
	// already popped are always processed to completion, so a paused
	// frontier plus the counters is an exact resume point. With a slice
	// limit, claimMu makes a worker's limit check, pop and claim one step,
	// so concurrent workers cannot claim past the limit between them.
	pause      func() bool
	sliceLimit int64
	claimMu    sync.Mutex

	memo  *traceMemo     // canonical-trace dedupe; nil unless ReductionSleepMemo
	met   *engineMetrics // resolved stats handles; nil when opts.Stats is nil
	model MemModel       // resolved opts.Model, applied to every worker runner

	// best is the lexicographically smallest failure seen. It is read
	// without a lock (pruneBound reads it twice per run); mu serializes
	// recordFailure's compare-and-store.
	mu   sync.Mutex
	best atomic.Pointer[exploreFailure]
}

func newExplorer(ctx context.Context, n int, ids []int, opts ExploreOptions, build func() Body, check func(*Result) error, bound []int) *explorer {
	e := &explorer{
		n:     n,
		ids:   ids,
		opts:  opts,
		build: build,
		check: check,
		bound: bound,
	}
	if opts.Reduction == ReductionSleepMemo {
		e.memo = newTraceMemo()
	}
	e.met = newEngineMetrics(opts.Stats)
	e.model = memModelFor(opts)
	e.ctx, e.cancel = context.WithCancel(ctx)
	e.shards = make([]*exploreShard, opts.Workers)
	for i := range e.shards {
		e.shards[i] = &exploreShard{}
	}
	return e
}

// newRootExplorer is newExplorer primed with the root frontier item (the
// unconstrained run); resumable explorations instead restore a saved
// frontier (checkpoint.go).
func newRootExplorer(ctx context.Context, n int, ids []int, opts ExploreOptions, build func() Body, check func(*Result) error, bound []int) *explorer {
	e := newExplorer(ctx, n, ids, opts, build, check, bound)
	e.pushTo(0, frontierItem{choices: []int{}})
	return e
}

// stopClaiming reports whether a checkpoint pause point fired: workers
// return without popping further frontier items (but finish the item in
// hand), so the frontier left behind is a complete description of the
// remaining work.
func (e *explorer) stopClaiming() bool {
	if e.sliceLimit > 0 && e.claimed.Load() >= e.sliceLimit {
		return true
	}
	return e.pause != nil && e.pause()
}

func (e *explorer) runWorkers() {
	defer e.cancel()
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		//gsb:nondeterminism-ok audited worker pool: the frontier hands out work under one lock and results are merged commutatively (TestExploreWorkerCountInvariance pins the counts)
		go func(w int) {
			defer wg.Done()
			e.worker(w)
		}(w)
	}
	wg.Wait()
	// Workers publish the frontier gauge as they go, and two of them can
	// publish out of order; settle it on the drained value.
	e.met.setFrontier(e.pending.Load())
}

// workerScratch is what one worker reuses across every run it executes:
// the runner and both prefix-replay policies. Frontier prefixes and the
// protocol instance are the only per-run allocations left.
type workerScratch struct {
	runner  *Runner
	explore explorePolicy
	por     porPolicy
}

// policyFor re-arms the policy the exploration's reduction calls for.
func (e *explorer) policyFor(ws *workerScratch, item frontierItem) explorerPolicy {
	if e.opts.Reduction != ReductionNone {
		ws.por.reset(item.choices, item.sleep)
		return &ws.por
	}
	ws.explore.reset(item.choices)
	return &ws.explore
}

func (e *explorer) worker(w int) {
	// The rng only picks steal victims; exploration results never depend
	// on it (see the determinism contract above).
	rng := rand.New(rand.NewSource(int64(uint64(e.opts.Seed) ^ 0x9e3779b97f4a7c15*uint64(w+1))))
	// One reusable runner and policy per worker: reset re-arms them for
	// every prefix re-execution.
	ws := &workerScratch{runner: NewRunner(e.n, e.ids, nil, WithMaxSteps(e.opts.MaxSteps), WithReuse(), WithModel(e.model))}
	defer ws.runner.Close()
	idle := 0
	for {
		if e.ctx.Err() != nil {
			return
		}
		item, st := e.claim(w, rng)
		switch st {
		case claimStop:
			return
		case claimEmpty:
			if e.pending.Load() == 0 {
				return
			}
			// Another worker is still expanding a prefix; back off briefly.
			if idle++; idle > 64 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		case claimRun:
			e.process(w, item, ws)
		}
		idle = 0
		e.pending.Add(-1)
		e.met.setFrontier(e.pending.Load())
	}
}

// claimStatus is the outcome of one claim attempt.
type claimStatus int

const (
	claimRun   claimStatus = iota // an item was popped and a run-budget slot claimed for it
	claimDone                     // an item was popped and dropped (pruned, or the budget is spent)
	claimEmpty                    // no frontier item is available right now
	claimStop                     // a checkpoint pause point fired
)

// claim pops the worker's next frontier item and claims a run-budget slot
// for it. The pause check, the pop and the claim form one step under
// claimMu when a slice limit is set: otherwise two workers could both pass
// the limit check before either claims, and a slice would end one run
// past its limit. Nothing is claimed for an empty pop or a pruned item,
// so MaxRuns accounting stays exact.
func (e *explorer) claim(w int, rng *rand.Rand) (frontierItem, claimStatus) {
	if e.sliceLimit > 0 {
		e.claimMu.Lock()
		defer e.claimMu.Unlock()
	}
	if e.stopClaiming() {
		return frontierItem{}, claimStop
	}
	item, ok := e.popOwn(w)
	if !ok {
		item, ok = e.steal(w, rng)
	}
	if !ok {
		return frontierItem{}, claimEmpty
	}
	if b := e.pruneBound(); b != nil && !prefixViable(item.choices, b) {
		e.met.incPrunes()
		return item, claimDone
	}
	if e.claimed.Add(1) > int64(e.opts.MaxRuns) {
		e.budgetHit.Store(true)
		e.cancel()
		return item, claimDone
	}
	return item, claimRun
}

func (e *explorer) pushTo(w int, item frontierItem) {
	e.pending.Add(1)
	s := e.shards[w]
	s.mu.Lock()
	s.items = append(s.items, item)
	s.mu.Unlock()
}

func (e *explorer) popOwn(w int) (frontierItem, bool) {
	s := e.shards[w]
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.items) == 0 {
		return frontierItem{}, false
	}
	it := s.items[len(s.items)-1]
	s.items[len(s.items)-1] = frontierItem{} // release the slot for GC
	s.items = s.items[:len(s.items)-1]
	return it, true
}

func (e *explorer) steal(w int, rng *rand.Rand) (frontierItem, bool) {
	start := rng.Intn(len(e.shards))
	for k := 0; k < len(e.shards); k++ {
		v := (start + k) % len(e.shards)
		if v == w {
			continue
		}
		s := e.shards[v]
		s.mu.Lock()
		if len(s.items) > 0 {
			it := s.items[0]
			// Re-slicing from the head keeps the backing array's dead
			// prefix reachable for as long as the slice lives; on long
			// explorations that retained every stolen prefix. Zero the
			// slot, and drop the whole array once the lane drains.
			s.items[0] = frontierItem{}
			s.items = s.items[1:]
			if len(s.items) == 0 {
				s.items = nil
			}
			s.mu.Unlock()
			e.met.incSteals()
			return it, true
		}
		s.mu.Unlock()
	}
	return frontierItem{}, false
}

// pruneBound returns the current lexicographic pruning bound: the fixed
// bound of a counting pass, or the best failure found so far.
func (e *explorer) pruneBound() []int {
	if e.bound != nil {
		return e.bound
	}
	if f := e.best.Load(); f != nil {
		return f.choices
	}
	return nil
}

func (e *explorer) recordFailure(choices []int, err error) {
	c := append([]int(nil), choices...)
	e.mu.Lock()
	defer e.mu.Unlock()
	if f := e.best.Load(); f == nil || lexLess(c, f.choices) {
		e.best.Store(&exploreFailure{choices: c, err: err})
	}
}

// process executes the run scripted by item's prefix (claim has taken
// its run-budget slot) on the worker's reused runner and policy, and
// pushes its unexplored sibling prefixes.
func (e *explorer) process(w int, item frontierItem, ws *workerScratch) {
	e.met.incRuns()

	policy := e.policyFor(ws, item)
	ws.runner.Reset(policy)
	res, err := ws.runner.Run(e.build())
	switch {
	case errors.Is(err, ErrRunAborted):
		// A sleep-set probe: every continuation of this run is
		// equivalent to a schedule explored under a smaller prefix. It
		// consumed a run-budget slot but counts as no schedule; its
		// pre-abort decision points still seed sibling branches below.
		e.met.incAborts()
	case err != nil:
		if e.bound == nil {
			choices := policy.runChoices()
			if errors.Is(err, ErrScheduleDiverged) {
				// The run took only the prefix choices replayed before
				// the diverging one.
				choices = choices[:ws.runner.scriptPos]
			}
			e.recordFailure(choices, fmt.Errorf("sched: exploration run with prefix %v: %w", item.choices, err))
		}
	case e.bound != nil:
		if lexLess(policy.runChoices(), e.bound) && e.admit(res) {
			e.countBelow.Add(1)
		}
	default:
		if e.admit(res) {
			e.completed.Add(1)
			e.met.incSchedules()
		}
		if e.check != nil {
			// Checked even when the memo already saw the trace class, so
			// a hash collision can merge counts but never hide a
			// violation.
			if cerr := e.check(res); cerr != nil {
				e.recordFailure(policy.runChoices(), fmt.Errorf("sched: schedule %v violates property: %w", policy.runChoices(), cerr))
			}
		}
	}

	b := e.pruneBound()
	for _, branch := range policy.branchItems() {
		if b != nil && !prefixViable(branch.choices, b) {
			e.met.incPrunes()
			continue
		}
		e.pushTo(w, branch)
	}
}

// admit reports whether the completed run should be counted: always,
// unless the canonical-trace memo has already counted an equivalent run.
func (e *explorer) admit(res *Result) bool {
	if e.memo == nil {
		return true
	}
	return e.memo.admit(CanonicalTraceHash(res.Schedule, OpIndependent))
}

// lexLess reports whether choice sequence a precedes b lexicographically
// (a proper prefix precedes its extensions).
func lexLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// prefixViable reports whether some completion of prefix can precede the
// bound lexicographically (equivalently: whether the subtree under prefix
// may still matter once bound is the smallest known failure).
func prefixViable(prefix, bound []int) bool {
	for i, c := range prefix {
		if i >= len(bound) {
			return false // strict extension of bound: every completion is larger
		}
		if c != bound[i] {
			return c < bound[i]
		}
	}
	return true
}
