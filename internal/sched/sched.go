// Package sched simulates the asynchronous wait-free shared-memory model
// ASM_{n,t} of the paper: n processes that communicate through atomic
// operations, scheduled by an adversary, of which up to n-1 may crash.
//
// Every shared-memory operation is funneled through the scheduler, which
// grants one operation at a time according to a pluggable Policy
// (round-robin, seeded random, scripted adversary, with optional crash
// injection). This yields a totally ordered sequence of steps — exactly
// the runs/schedules formalism of Section 2 of the paper — and makes
// executions reproducible: the same policy, identities and body always
// produce the same run.
//
// Processes run as coroutines (iter.Pull) rather than free-running
// goroutines, and the scheduler is not a separate thread of control: a
// scheduling decision is taken on whichever stack is running when the
// previous step ends. A process granted a step keeps running until its
// next request and takes the next decision itself, on its own stack; if
// the decision picks it again the step is granted in place, with no
// switch at all. Only when the running process changes (or it finishes,
// or issues an untyped Exec step) does it hand its pending request back
// in a single stack switch, and the scheduler applies the decision it
// already took. Either way the policy is consulted exactly once per
// decision. The runner keeps one hard invariant — when a decision is
// taken, every live process except the deciding one is either unstarted or
// suspended at its yield point with a pending request, and none is
// unstarted when the policy is consulted — so the pending set a decision
// sees is complete, the run is deterministic, and crashes and panic
// recovery are leak-free by construction. A step therefore costs a stack
// switch only when the running process changes, and no channel operation
// or trip through the runtime scheduler ever.
//
// The exploration engines re-execute a known prefix of choices before
// every new decision; the runner replays such a prefix itself
// (replayPolicy), checking each choice against the pending table without
// consulting the policy.
//
// The hot path is also allocation-free in steady state: every per-run and
// per-step structure (the pending-request table, the scratch buffers
// handed to the policy, the Result and its Schedule backing array) is
// allocated once in NewRunner and reused across runs. A step is a typed
// Op (op.go) that its object built once, at construction: requesting it
// hands the scheduler a pointer, and the granted process applies the
// operation itself as soon as its request returns — before any other
// process can run, so at the step's linearization point — with its
// arguments and results on its own stack. No closure, no boxed result, no
// label string is made per step. Exploration engines
// re-execute millions of short runs, so a Runner can be re-armed with
// Reset and — with WithReuse — keep its process coroutines between runs
// instead of recreating them.
//
// A process coroutine is resumed only to grant it a step. Run resumes no
// process up front: a process first runs when the replayed prefix first
// picks it, resumed as the stepper so that its first request takes that
// choice in place — starting it and granting its first step cost one
// resume. The processes the prefix never picks are started before the
// policy is first consulted (just before the scheduler resumes the process
// whose in-place decision will consult it), so a policy always sees the
// full pending set.
//
// A crash is simulated by never granting the process another step, and it
// resumes nothing: the runner records the crash (Result.Crashed and the
// Schedule entry) and leaves the coroutine suspended at its request. The
// coroutine unwinds — a recovered panic that runs the body's defers — the
// next time it is resumed: inside the resume that starts its next run, at a
// one-shot runner's teardown before Run returns, or at Close. A crashed
// body that re-enters Step or Exec while it unwinds is refused on its own
// stack. A process that never started is crashed by dropping its body.
// Every early end of a run (an abort, a diverged replay, a step-budget
// overrun, a broken policy, a scheduler-side panic) crashes the live
// processes this way, in index order.
package sched

import (
	"errors"
	"fmt"
	"iter"
	"strings"
)

// stepReq is what a process coroutine hands the scheduler when it
// suspends: the operation it wants to execute, or — with parked set — the
// notification that its body has finished and the coroutine is parked
// waiting for the next run. fn is set only for Proc.Exec closures, which
// the runner applies itself; every typed step (mem operations, Decide) is
// applied by the granted process.
type stepReq struct {
	op     *Op
	fn     func() any
	parked bool
}

// Proc is the handle through which a process body interacts with the run.
// Its index is an addressing mechanism only (Section 2.1): protocol code
// must base decisions on ID and observed values, never on Index. The
// verifier in verify.go checks this discipline by replaying permuted runs.
type Proc struct {
	r     *Runner
	index int // 0-based slot in the shared arrays
	id    int // identity drawn from [1..N], the only input

	// Coroutine state: yield suspends the process with its pending
	// request; next resumes it (from the scheduler side); stop unwinds
	// the coroutine on teardown.
	yield func(stepReq) bool
	next  func() (stepReq, bool)
	stop  func()

	// body is the run's body, delivered by Run and taken by the coroutine
	// when the process starts: non-nil exactly while the process is
	// unstarted this run.
	body     Body
	replyVal any // an Exec closure's result, set before resuming
	// dead marks the body on the coroutine as crashed: a crash is final,
	// so its requests are refused on its own stack, and the resume that
	// next reaches it unwinds it. The next body it starts clears it.
	dead bool

	// execOp is the Op of the pending Exec step: its label, parsed lazily
	// (KindUnparsed) when a policy asks for typed ops.
	execOp Op
}

// Index returns the process's register index (0-based, addressing only).
func (p *Proc) Index() int { return p.index }

// ID returns the process's identity (its input).
func (p *Proc) ID() int { return p.id }

// N returns the number of processes in the system.
func (p *Proc) N() int { return p.r.n }

// Model returns the memory model the run executes under (the zero value —
// atomic registers — unless the runner was built WithModel). internal/mem
// consults it on every register operation.
//
//gsb:hotpath
func (p *Proc) Model() MemModel { return p.r.model }

// errCrashed unwinds a crashed process's coroutine. It is recovered by the
// runner's wrapper; any other panic value is re-raised.
var errCrashed = errors.New("sched: process crashed")

// Step requests one atomic step performing op and returns when the
// scheduler grants it. The caller applies the operation's effect right
// after Step returns, before it requests another step: nothing else runs
// between the grant and the process's next request, so the effect lands
// exactly at the step's linearization point, with exclusive access to
// all shared state. op must stay valid (and unchanged) while the step is
// pending; package mem passes Ops from interned ObjectOps tables.
//
// If the scheduler crashes the process instead of granting the step, Step
// never returns (the coroutine unwinds when it is next resumed).
//
//gsb:hotpath
func (p *Proc) Step(op *Op) {
	p.request(stepReq{op: op})
}

// request hands req to the scheduler and returns once it is granted.
// A typed step of the process the scheduler last resumed is decided in
// place (grantInPlace): when the decision picks this process again the
// step is granted without a switch. A crashed body's request is refused
// here, on its own stack, with no switch.
//
//gsb:hotpath
func (p *Proc) request(req stepReq) {
	if p.dead {
		panic(errCrashed)
	}
	if r := p.r; r.stepper == p && req.fn == nil && r.result.Steps < r.maxSteps && r.grantInPlace(p, req.op) {
		return
	}
	if !p.yield(req) || p.dead {
		// Crashed while suspended, or the runner is tearing the
		// coroutine down: unwind.
		panic(errCrashed)
	}
}

// Exec performs one atomic step running the closure op: the untyped,
// compatibility form of Step. The runner calls op at the linearization
// point, with exclusive access to all shared state, and Exec returns its
// result. The name labels the step in the recorded schedule; it is mapped
// onto the typed relation with ParseOp only when a policy asks for the
// pending ops, so "<object>.<kind>" names commute exactly like the same
// operation issued by a mem object.
//
// If the scheduler crashes the process instead of granting the step, Exec
// never returns (the coroutine unwinds when it is next resumed).
//
//gsb:hotpath
func (p *Proc) Exec(name string, op func() any) any {
	p.execOp = Op{Label: name}
	p.request(stepReq{op: &p.execOp, fn: op})
	val := p.replyVal
	p.replyVal = nil
	return val
}

// Decide records v as the process's output (the write to the write-once
// output_i register of the paper) as one atomic step. Like a mem
// operation it is a typed step the process applies itself once granted,
// so deciding twice panics in protocol code (a ProcessPanic).
//
//gsb:hotpath
func (p *Proc) Decide(v int) {
	p.Step(&decideOp)
	res := p.r.result
	if res.Decided[p.index] {
		panic(fmt.Sprintf("sched: process %d decided twice", p.index))
	}
	res.Decided[p.index] = true
	res.Outputs[p.index] = v
}

// run is the process coroutine: one body per run, parked between runs.
// The resume that starts a run finds the body already delivered; when it
// reaches a crashed body suspended at its request, that body unwinds first
// and the new one starts in the same resume.
func (p *Proc) run(yield func(stepReq) bool) {
	p.yield = yield
	for {
		if p.body != nil {
			p.runBody()
		} else if !yield(stepReq{parked: true}) {
			return
		}
	}
}

// runBody executes one run's body. Panics raised by protocol code outside
// ops surface here, where the scheduler's recover cannot see them; capture
// them (crash unwinds excepted) for Run to re-raise. A panic already
// recorded for the process this run — an Exec closure's, raised on the
// scheduler side — is kept over one its unwinding defers raise.
func (p *Proc) runBody() {
	defer func() {
		if rec := recover(); rec != nil {
			if err, ok := rec.(error); (!ok || !errors.Is(err, errCrashed)) && p.r.panics[p.index] == nil {
				p.r.panics[p.index] = rec // protocol bug: re-raise from Run
			}
		}
	}()
	body := p.body
	p.body, p.dead = nil, false
	body(p)
}

// Body is a process's local algorithm.
type Body func(p *Proc)

// Step is one entry of a recorded schedule.
type Step struct {
	Proc  int    // process index
	Op    string // operation label ("write", "snapshot", "decide", ...)
	Crash bool   // true if this entry records a crash, not an operation
}

// Result describes a completed run.
//
// A Result returned by a Runner is reused by that runner's next Run (its
// slices are re-filled in place); callers that keep results across runs of
// the same runner must copy what they need first. One-shot callers — one
// NewRunner per Run — are unaffected.
type Result struct {
	Outputs  []int  // decided values (1-based); 0 when undecided
	Decided  []bool // per-process: did it write its output register?
	Crashed  []bool // per-process: was it crashed by the adversary?
	Schedule []Step // the linearized schedule, including crash events
	Steps    int    // number of operation steps granted (crashes excluded)

	// procSteps counts the operation steps granted to each process,
	// maintained by the runner during the run so that Participating is
	// O(1) instead of a Schedule scan (property checks call it per
	// process on the exploration hot path).
	procSteps []int
}

// DecidedVector returns the output vector when every process decided, or
// an error naming the first process that did not.
func (r *Result) DecidedVector() ([]int, error) {
	for i, d := range r.Decided {
		if !d {
			return nil, fmt.Errorf("sched: process %d did not decide (crashed=%v)", i, r.Crashed[i])
		}
	}
	return append([]int(nil), r.Outputs...), nil
}

// Participating reports whether process i took at least one step.
func (r *Result) Participating(i int) bool {
	if r.procSteps != nil {
		return r.procSteps[i] > 0
	}
	// Hand-built Result (no per-process counts): fall back to the scan.
	for _, s := range r.Schedule {
		if s.Proc == i && !s.Crash {
			return true
		}
	}
	return false
}

// ProcessPanic is a panic raised by protocol code, captured by the runner
// and re-raised from Run wrapped with the index of the process it came
// from. Value is the original panic value, preserved verbatim.
type ProcessPanic struct {
	Proc  int // process index
	Value any // the original recovered value
}

// Error implements error (panic values print through it).
func (p ProcessPanic) Error() string {
	return fmt.Sprintf("sched: process %d panicked: %v", p.Proc, p.Value)
}

// ProcessPanics is the panic value re-raised by Run when protocol code
// panicked: one entry per panicking process, in index order. Recover it to
// get at every original panic value, not a flattened string.
type ProcessPanics []ProcessPanic

// Error implements error.
func (ps ProcessPanics) Error() string {
	msgs := make([]string, len(ps))
	for i, p := range ps {
		msgs[i] = p.Error()
	}
	return strings.Join(msgs, "; ")
}

// Runner executes runs of a distributed algorithm. A Runner is not safe
// for concurrent use; run loops give each worker its own.
type Runner struct {
	n        int
	ids      []int
	policy   Policy
	maxSteps int
	reuse    bool
	model    MemModel

	result *Result
	procs  []*Proc

	// Fixed-size per-run state, allocated once and reset by each Run.
	panics     []any
	pendingReq []stepReq // pending request of process i (valid iff pendingOn[i])
	pendingOn  []bool
	// Reusable scratch handed to the policy each decision. Policies must
	// treat the pending and ops slices as valid only for the duration of
	// the call (every policy in this repository copies what it keeps).
	pendingIdx []int
	opsBuf     []Op

	// Live loop state (fields so the panic-unwind path can see them).
	exited       int // processes whose body finished, crashed or panicked
	crashedCount int
	granting     int // process whose Exec closure is executing right now; -1 otherwise

	// script is the prefix of choices a replayPolicy hands the runner,
	// replayed up to scriptPos so far in this run. Its last maximal
	// same-process block starts at tailStart and belongs to process tail
	// (-1 for an empty script).
	script    []int
	scriptPos int
	tailStart int
	tail      int

	// unstarted counts the processes whose body has been delivered but
	// not started this run (Proc.body != nil).
	unstarted int

	// In-place decisions (grantInPlace). stepper is the process the
	// scheduler last resumed with a grant (or to start it on its first
	// replayed choice), nil otherwise: while it runs,
	// its typed requests take the next decision on its own stack. A
	// decision it cannot apply itself is held for the scheduler, and a
	// policy panic raised by one is held for the scheduler to re-raise.
	stepper     *Proc
	held        Decision
	hasHeld     bool
	policyPanic any

	// resumes counts coroutine resumptions this run (each is two stack
	// switches: into the process and back).
	resumes int

	live   bool // the process coroutines exist (parked, or crashed and suspended)
	closed bool
}

// Option configures a Runner.
type Option func(*Runner)

// WithMaxSteps overrides the safety budget on total steps (default
// 4096*n). Exceeding the budget aborts the run with an error; this is how
// non-wait-free loops and livelocks surface in tests.
func WithMaxSteps(max int) Option {
	return func(r *Runner) { r.maxSteps = max }
}

// WithModel selects the memory model the runner's runs execute under
// (MemModelByName; the zero value is the default atomic model). The model
// only changes which steps internal/mem objects request from the
// scheduler — the runner itself schedules identically.
func WithModel(m MemModel) Option {
	return func(r *Runner) { r.model = m }
}

// WithReuse keeps the n process coroutines between runs instead of
// recreating them per Run. Combined with Reset this makes re-executing a
// run allocation-free in steady state, which is what the exploration
// engines ride on. A process crashed in one run (by the policy, or by an
// abort, budget overrun or panic ending the run early) stays suspended at
// its request and unwinds inside the resume that starts it in a later run,
// or at Close; panics its defers raise then are reported by that later
// Run. The caller must Close the runner when done with it; without
// WithReuse the coroutines are torn down at the end of each Run and no
// Close is needed.
func WithReuse() Option {
	return func(r *Runner) { r.reuse = true }
}

// NewRunner creates a runner for n processes with the given distinct
// identities (ids[i] is the input of the process at index i) and policy.
// Everything the hot path needs is allocated here, once, so that Run does
// not allocate in steady state. policy may be nil if Reset is called
// before the first Run.
func NewRunner(n int, ids []int, policy Policy, opts ...Option) *Runner {
	if n < 1 {
		panic("sched: need n >= 1")
	}
	if len(ids) != n {
		panic(fmt.Sprintf("sched: got %d ids for %d processes", len(ids), n))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			panic(fmt.Sprintf("sched: duplicate identity %d", id))
		}
		seen[id] = true
	}
	r := &Runner{
		n:        n,
		ids:      append([]int(nil), ids...),
		policy:   policy,
		maxSteps: 4096 * n,

		result: &Result{
			Outputs:   make([]int, n),
			Decided:   make([]bool, n),
			Crashed:   make([]bool, n),
			procSteps: make([]int, n),
		},
		procs:      make([]*Proc, n),
		panics:     make([]any, n),
		pendingReq: make([]stepReq, n),
		pendingOn:  make([]bool, n),
		pendingIdx: make([]int, 0, n),
		opsBuf:     make([]Op, 0, n),
		granting:   -1,
	}
	for i := 0; i < n; i++ {
		r.procs[i] = &Proc{r: r, index: i, id: r.ids[i]}
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// DefaultIDs returns the identity assignment {1, 2, ..., n}.
func DefaultIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// ErrStepBudget is returned when a run exceeds its step budget.
var ErrStepBudget = errors.New("sched: step budget exhausted (protocol not wait-free under this schedule?)")

// N returns the number of processes the runner executes.
func (r *Runner) N() int { return r.n }

// Reset re-arms the runner to execute another run under a new policy,
// reusing every buffer — the Result, its Schedule backing array, the
// coroutines (under WithReuse) and the scratch tables — from the previous
// run. The previous Result is invalidated. Exploration run loops call
// Reset once per schedule prefix instead of constructing a fresh Runner.
func (r *Runner) Reset(policy Policy) { r.policy = policy }

// Close unwinds the process coroutines a WithReuse runner keeps between
// runs: the parked ones, and those of processes crashed in the last run
// they took part in, whose deferred calls run now (a panic one of them
// raises is not reported: no Run is left to report it). It is safe to
// call multiple times, and a no-op for runners without reuse. Run must
// not be called after Close.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.teardown()
}

// spawn creates the n process coroutines. None of them runs yet: a
// coroutine first runs when the process starts.
func (r *Runner) spawn() {
	r.live = true
	for _, p := range r.procs {
		p.next, p.stop = iter.Pull(p.run)
	}
}

// teardown unwinds the coroutines: a parked one's park yield returns
// false and Proc.run returns; a crashed one's request yield returns false
// and its body unwinds first; one that never ran just ends.
func (r *Runner) teardown() {
	if !r.live {
		return
	}
	r.live = false
	for _, p := range r.procs {
		p.stop()
		p.next, p.stop = nil, nil
	}
}

// Run executes body on all n processes until every process has finished
// or crashed, and returns the recorded result.
//
// The returned Result is owned by the runner and re-filled by the next
// Run; copy anything that must outlive it. If protocol code panics — on a
// process coroutine, or inside an Exec closure — Run crashes every other
// process, then re-raises the original panic values as a ProcessPanics. A
// panic raised by the policy is re-raised as-is, after the same crashes.
//
// Crashed processes unwind lazily (see the package comment), so a panic
// raised by a protocol defer while a crashed body unwinds is reported as a
// ProcessPanic by the Run whose resume unwinds it: on a one-shot runner
// that is this Run, which tears its coroutines down before it returns; on
// a WithReuse runner it is the later Run that starts the process again.
func (r *Runner) Run(body Body) (*Result, error) {
	if r.closed {
		panic("sched: Run called on a closed Runner")
	}
	if r.policy == nil {
		panic("sched: Run called without a policy (NewRunner with a nil policy requires Reset first)")
	}
	if !r.live {
		r.spawn()
	}
	if !r.reuse {
		defer r.teardown() // on a re-raised scheduler-side panic
	}
	r.beginRun(body)
	err := r.schedule()
	if !r.reuse {
		r.teardown() // crashed bodies unwind here, inside this Run
	}

	var pps ProcessPanics
	for i, rec := range r.panics {
		if rec != nil {
			pps = append(pps, ProcessPanic{Proc: i, Value: rec})
		}
	}
	if pps != nil {
		panic(pps)
	}
	return r.result, err
}

// beginRun resets the per-run state in place (no allocation) and
// delivers body to every process, leaving all of them unstarted.
//
//gsb:hotpath
func (r *Runner) beginRun(body Body) {
	res := r.result
	for i, p := range r.procs {
		res.Outputs[i] = 0
		res.Decided[i] = false
		res.Crashed[i] = false
		res.procSteps[i] = 0
		r.panics[i] = nil
		r.pendingReq[i] = stepReq{}
		r.pendingOn[i] = false
		p.body = body
	}
	res.Schedule = res.Schedule[:0]
	res.Steps = 0
	r.exited = 0
	r.crashedCount = 0
	r.unstarted = r.n
	r.granting = -1
	r.script, r.scriptPos = nil, 0
	if rp, ok := r.policy.(replayPolicy); ok {
		r.script = rp.replayPrefix()
	}
	r.tailStart, r.tail = len(r.script), -1
	if k := len(r.script); k > 0 {
		r.tail = r.script[k-1]
		for r.tailStart > 0 && r.script[r.tailStart-1] == r.tail {
			r.tailStart--
		}
	}
	r.stepper, r.hasHeld, r.policyPanic = nil, false, nil
	r.resumes = 0
}

// resume resumes a process coroutine and records its next pending
// request; a parked (or terminated) coroutine means the process exited
// this run.
//
//gsb:hotpath
func (r *Runner) resume(p *Proc) {
	r.resumes++
	req, ok := p.next()
	if !ok || req.parked {
		r.exited++
		return
	}
	r.pendingReq[p.index] = req
	r.pendingOn[p.index] = true
}

// resumeStepper resumes p as the stepper: to grant it the step the
// scheduler just took for it, or — when p is unstarted — to start it,
// its first request then taking the replayed choice that picks it in
// place. When p owns the last block of the replayed prefix, the decision
// after that block is the policy's first, and p may take it in place, so
// every process still unstarted is started first.
//
//gsb:hotpath
func (r *Runner) resumeStepper(p *Proc) {
	if r.unstarted > 0 && p.index == r.tail && r.scriptPos >= r.tailStart {
		r.startAll(p)
	}
	if p.body != nil {
		r.unstarted--
	}
	r.stepper = p
	r.resume(p)
	r.stepper = nil
}

// startAll starts every unstarted process except skip (which may be nil),
// in index order, for a decision the policy takes: each runs to its first
// request and suspends there.
//
//gsb:hotpath
func (r *Runner) startAll(skip *Proc) {
	for _, p := range r.procs {
		if p.body != nil && p != skip {
			r.unstarted--
			r.resume(p)
		}
	}
}

// unstartedPick returns the process the next replayed choice picks when
// it is unstarted, nil otherwise.
//
//gsb:hotpath
func (r *Runner) unstartedPick() *Proc {
	if pick := r.script[r.scriptPos]; pick >= 0 && pick < r.n && r.procs[pick].body != nil {
		return r.procs[pick]
	}
	return nil
}

// schedule is the scheduler loop. Whenever it decides, every live process
// is unstarted or suspended at its yield point with a pending request —
// the coroutine invariant — and before it consults the policy it starts
// the unstarted ones, so the policy always chooses among all live
// processes and the run is deterministic. The loop applies decisions the
// granted process took in place but could not apply itself
// (grantInPlace), and takes the rest itself. Every early end of the run
// goes through crashLive, which resumes nothing. If an Exec closure (or
// the policy) panics here, the deferred recovery crashes every live
// process the same way, so the panic cannot leak a coroutine; closure
// panics are attributed to the granted process and re-raised by Run, any
// other panic is re-raised as-is.
//
//gsb:hotpath
func (r *Runner) schedule() (err error) {
	//gsb:alloc-ok open-coded defer in a function whose closure does not escape: stack-allocated; gsbbench pins the hot path at 0 allocs/run
	defer func() {
		if rec := recover(); rec != nil {
			g := r.granting
			r.crashLive(nil)
			if g >= 0 {
				r.panics[g] = rec
			} else {
				panic(rec)
			}
		}
	}()

	for r.exited < r.n {
		if rec := r.policyPanic; rec != nil {
			// The policy panicked during an in-place decision; the
			// deciding process has yielded, and the recovery above
			// crashes every live process.
			r.policyPanic = nil
			panic(rec)
		}
		if r.result.Steps >= r.maxSteps {
			// No decision is held here: in-place decisions are taken
			// only within the budget.
			return r.crashLive(ErrStepBudget)
		}

		var dec Decision
		switch {
		case r.hasHeld: // taken in place by the process that just yielded
			dec, r.hasHeld = r.held, false
		case r.scriptPos < len(r.script):
			if p := r.unstartedPick(); p != nil {
				r.resumeStepper(p)
				continue
			}
			dec = r.replay()
		default:
			if r.unstarted > 0 {
				r.startAll(nil)
				continue
			}
			dec = r.nextDecision()
		}
		if dec.Abort {
			// The policy discards the rest of the run (e.g. a
			// partial-order-reduction probe whose continuations are all
			// covered elsewhere): report ErrRunAborted — or the
			// structured error (e.g. ErrScheduleDiverged) the decision
			// carries.
			if dec.Err != nil {
				return r.crashLive(dec.Err)
			}
			return r.crashLive(ErrRunAborted)
		}
		if dec.Proc < 0 || dec.Proc >= r.n || !r.pendingOn[dec.Proc] {
			return r.crashLive(fmt.Errorf("sched: policy chose process %d which has no pending step", dec.Proc))
		}
		if dec.Crash {
			if r.crashedCount+1 == r.n {
				// The crash is recorded and the run ends with it; the
				// violation is reported as its error.
				err = fmt.Errorf("sched: policy crashed all %d processes; the wait-free model allows at most n-1 crashes", r.n)
			}
			r.crash(dec.Proc)
			continue
		}

		req := r.pendingReq[dec.Proc]
		r.pendingReq[dec.Proc] = stepReq{} // drop the op/closure references
		r.pendingOn[dec.Proc] = false
		p := r.procs[dec.Proc]
		if req.fn != nil {
			r.granting = dec.Proc
			p.replyVal = req.fn() // exclusive: the linearization point of the step
			r.granting = -1
		}
		r.grant(dec.Proc, req.op)
		// Resuming the process grants the step; a typed op is applied by
		// the process itself before it can request again, and its typed
		// requests are decided in place until the running process
		// changes.
		r.resumeStepper(p)
	}
	return err
}

// crash records the crash of live process i — Result.Crashed and the
// Schedule entry — and takes it out of the run without resuming it. A
// started process's coroutine stays suspended at its request, marked
// dead, and unwinds when it is next resumed; an unstarted process is
// crashed by dropping its body.
//
//gsb:hotpath
func (r *Runner) crash(i int) {
	p := r.procs[i]
	r.crashedCount++
	r.result.Crashed[i] = true
	r.result.Schedule = append(r.result.Schedule, Step{Proc: i, Crash: true}) //gsb:alloc-ok reused Result.Schedule scratch, steady-state capacity after the first run
	r.pendingReq[i] = stepReq{}
	r.pendingOn[i] = false
	if p.body != nil {
		p.body = nil
		r.unstarted--
	} else {
		p.dead = true
	}
	r.exited++
}

// crashLive ends the run early with err: it crashes every live process —
// pending, unstarted, or running an Exec closure that panicked — in index
// order, resuming none of them.
//
//gsb:hotpath
func (r *Runner) crashLive(err error) error {
	r.stepper, r.hasHeld = nil, false
	for i, p := range r.procs {
		if r.pendingOn[i] || p.body != nil || i == r.granting {
			r.crash(i)
		}
	}
	r.granting = -1
	return err
}

// grantInPlace takes the decision after p's new request for op on p's
// own stack. Every other live process is unstarted or suspended at its
// yield point, so the pending set is the one the scheduler would see.
// When the decision picks p (and is no crash or abort) the step is granted
// here and p carries on without a switch; any other decision is held for
// the scheduler, which applies it once p has yielded — the policy is
// consulted exactly once per decision either way. A replayed choice that
// picks an unstarted process is left to the scheduler, which starts it: p
// yields with its request and takes no decision.
//
//gsb:hotpath
func (r *Runner) grantInPlace(p *Proc, op *Op) bool {
	i := p.index
	k := r.scriptPos
	if k < len(r.script) && r.script[k] == i {
		// The replayed prefix picks p again: grant the step without
		// touching the pending table.
		r.scriptPos++
		r.grant(i, op)
		return true
	}
	r.pendingReq[i] = stepReq{op: op}
	r.pendingOn[i] = true
	// Past the prefix no process is unstarted: the scheduler started
	// them all for its own first policy decision, or resumeStepper
	// started the rest before resuming the owner of the prefix's last
	// block, whose in-place decision is the policy's first.
	var dec Decision
	if k < len(r.script) {
		if r.unstartedPick() != nil {
			return false
		}
		dec = r.replay()
	} else if d, ok := r.consultInPlace(); ok {
		dec = d
	} else {
		return false // the policy panicked; the scheduler re-raises it
	}
	if dec.Proc == i && !dec.Crash && !dec.Abort {
		r.pendingReq[i] = stepReq{}
		r.pendingOn[i] = false
		r.grant(i, op)
		return true
	}
	r.held, r.hasHeld = dec, true
	return false
}

// consultInPlace consults the policy on a process stack. A policy panic
// must not unwind the process body as a protocol panic: it is captured
// and held, and the scheduler re-raises it as-is once the process has
// yielded.
//
//gsb:hotpath
func (r *Runner) consultInPlace() (dec Decision, ok bool) {
	//gsb:alloc-ok open-coded defer in a function whose closure does not escape: stack-allocated; TestReusedRunnerAllocsPerStep pins the step path at 0 allocs
	defer func() {
		if rec := recover(); rec != nil {
			r.policyPanic = rec
		}
	}()
	return r.nextDecision(), true
}

// grant records the granted step of process i, whose request has left
// the pending table.
//
//gsb:hotpath
func (r *Runner) grant(i int, op *Op) {
	r.result.Steps++
	r.result.procSteps[i]++
	r.result.Schedule = append(r.result.Schedule, Step{Proc: i, Op: op.Label}) //gsb:alloc-ok reused Result.Schedule scratch, steady-state capacity after the first run
}

// replay takes the next decision of a replayPolicy's prefix: its next
// choice, checked against the pending table. It makes no policy call and
// builds no pending list or op copy.
//
//gsb:hotpath
func (r *Runner) replay() Decision {
	pick := r.script[r.scriptPos]
	if pick < 0 || pick >= r.n || !r.pendingOn[pick] {
		return Decision{Abort: true, Err: r.diverged(pick)}
	}
	r.scriptPos++
	return Decision{Proc: pick}
}

// diverged is the error of a replayed prefix choice that names a process
// with no pending step.
func (r *Runner) diverged(pick int) error {
	var pending []int
	for i, on := range r.pendingOn {
		if on || r.procs[i].body != nil { // an unstarted process is pending its first step
			pending = append(pending, i)
		}
	}
	return fmt.Errorf("%w: exploration prefix chose %d but pending is %v", ErrScheduleDiverged, pick, pending)
}

// replayPolicy is a policy whose runs open with a fixed prefix of
// choices. The runner replays the prefix itself and consults the policy
// only from the first decision past it; a prefix choice naming a process
// with no pending step aborts the run with ErrScheduleDiverged.
type replayPolicy interface {
	Policy
	// replayPrefix returns the prefix; the runner reads it once, when a
	// run begins, and does not modify it.
	replayPrefix() []int
}

// nextDecision consults the policy for the next scheduling decision,
// passing the sorted pending list and — when the policy asks for them
// (OpAwarePolicy) — the pending typed operations. The slices are the
// runner's reusable scratch buffers. An Exec step's label is parsed here,
// at each decision it is pending for, and only for such policies.
//
//gsb:hotpath
func (r *Runner) nextDecision() Decision {
	// The pending table is indexed by process, so an ascending scan
	// yields the sorted index list the Policy contract promises.
	idx := r.pendingIdx[:0]
	for i, on := range r.pendingOn {
		if on {
			idx = append(idx, i) //gsb:alloc-ok appends into r.pendingIdx[:0], pre-grown to n at NewRunner
		}
	}
	r.pendingIdx = idx
	if oap, ok := r.policy.(OpAwarePolicy); ok {
		ops := r.opsBuf[:0]
		for _, i := range idx {
			op := *r.pendingReq[i].op
			if op.Kind == KindUnparsed {
				op = ParseOp(op.Label)
			}
			ops = append(ops, op) //gsb:alloc-ok appends into r.opsBuf[:0], pre-grown to n at NewRunner
		}
		r.opsBuf = ops
		return oap.NextOps(idx, ops, r.result.Steps)
	}
	return r.policy.Next(idx, r.result.Steps)
}
