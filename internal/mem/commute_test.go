package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gsb"
	"repro/internal/sched"
)

// This file is the correctness gate of the typed independence relation:
// partial-order reduction prunes a schedule whenever IndependentOps says
// two pending steps commute, so a wrongly typed op silently drops real
// schedules. For every object of this package under every registered
// memory model, the test drives random programs to sampled reachable
// states and, for every pair of pending steps the relation calls
// independent, executes both orders and requires the same return values,
// the same shared state and the same next requests. It also checks that
// the relation agrees with the label relation OpIndependent on every
// label the objects emit.

// commuteOp performs one operation of an object for p with argument v
// and returns its result, formatted.
type commuteOp func(p *sched.Proc, v int) string

// commuteCase builds fresh instances of one object type: two of them
// (named X and Y), so programs produce both same-object and cross-object
// step pairs. state dumps every field of both instances.
type commuteCase struct {
	name    string
	oneShot bool // a process may invoke each instance at most once
	build   func(n int) (ops []commuteOp, state func() string)
}

func fmtPair[T any](v T, ok bool) string { return fmt.Sprint(v, ok) }

func fmtSlices[T any](vs []T, oks []bool) string { return fmt.Sprint(vs, oks) }

var commuteCases = []commuteCase{
	{name: "Array", build: func(n int) ([]commuteOp, func() string) {
		x, y := NewArray[int]("X", n), NewArray[int]("Y", n)
		var ops []commuteOp
		for _, a := range []*Array[int]{x, y} {
			ops = append(ops,
				func(p *sched.Proc, v int) string { a.Write(p, v); return "" },
				func(p *sched.Proc, v int) string { return fmtPair(a.Read(p, v%n)) },
				func(p *sched.Proc, _ int) string { return fmtSlices(a.Snapshot(p)) },
				func(p *sched.Proc, _ int) string { return fmtSlices(a.Collect(p)) },
			)
		}
		return ops, func() string { return fmt.Sprint(x.cells, y.cells) }
	}},
	{name: "Reg", build: func(int) ([]commuteOp, func() string) {
		x, y := NewReg[int]("X"), NewReg[int]("Y")
		var ops []commuteOp
		for _, r := range []*Reg[int]{x, y} {
			ops = append(ops,
				func(p *sched.Proc, v int) string { r.Write(p, v); return "" },
				func(p *sched.Proc, _ int) string { return fmtPair(r.Read(p)) },
			)
		}
		return ops, func() string { return fmt.Sprint(x.cell, y.cell) }
	}},
	{name: "TAS", build: func(int) ([]commuteOp, func() string) {
		x, y := NewTAS("X"), NewTAS("Y")
		return []commuteOp{
			func(p *sched.Proc, _ int) string { return fmt.Sprint(x.TestAndSet(p)) },
			func(p *sched.Proc, _ int) string { return fmt.Sprint(y.TestAndSet(p)) },
		}, func() string { return fmt.Sprint(x.set, y.set) }
	}},
	{name: "TASRow", build: func(n int) ([]commuteOp, func() string) {
		row := NewTASRow("X", n)
		var ops []commuteOp
		for k := range row {
			ops = append(ops, func(p *sched.Proc, _ int) string { return fmt.Sprint(row[k].TestAndSet(p)) })
		}
		return ops, func() string {
			set := make([]bool, len(row))
			for k := range row {
				set[k] = row[k].set
			}
			return fmt.Sprint(set)
		}
	}},
	{name: "FetchInc", build: func(int) ([]commuteOp, func() string) {
		x, y := NewFetchInc("X"), NewFetchInc("Y")
		return []commuteOp{
			func(p *sched.Proc, _ int) string { return fmt.Sprint(x.FetchInc(p)) },
			func(p *sched.Proc, _ int) string { return fmt.Sprint(y.FetchInc(p)) },
		}, func() string { return fmt.Sprint(x.next, y.next) }
	}},
	{name: "TaskBox", oneShot: true, build: func(n int) ([]commuteOp, func() string) {
		x := NewTaskBox("X", gsb.Renaming(n, 2*n-1), 7)
		y := DrawTaskBox("Y", gsb.KSlot(n, n-1), 3).New()
		return []commuteOp{
				func(p *sched.Proc, _ int) string { return fmt.Sprint(x.Invoke(p)) },
				func(p *sched.Proc, _ int) string { return fmt.Sprint(y.Invoke(p)) },
			}, func() string {
				return fmt.Sprint(x.next, x.invoked, y.next, y.invoked)
			}
	}},
	{name: "KTAS", build: func(int) ([]commuteOp, func() string) {
		x, y := NewKTAS("X", 2), NewKTAS("Y", 1)
		return []commuteOp{
			func(p *sched.Proc, _ int) string { return fmt.Sprint(x.Invoke(p)) },
			func(p *sched.Proc, _ int) string { return fmt.Sprint(y.Invoke(p)) },
		}, func() string { return fmt.Sprint(x.winners, y.winners) }
	}},
	{name: "KLeaderElection", build: func(int) ([]commuteOp, func() string) {
		x, y := NewKLeaderElection("X", 2), NewKLeaderElection("Y", 1)
		return []commuteOp{
			func(p *sched.Proc, _ int) string { return fmt.Sprint(x.Invoke(p, p.ID())) },
			func(p *sched.Proc, _ int) string { return fmt.Sprint(y.Invoke(p, p.ID())) },
		}, func() string { return fmt.Sprint(x.leaders, x.calls, y.leaders, y.calls) }
	}},
	{name: "Consensus", build: func(int) ([]commuteOp, func() string) {
		x, y := NewConsensus("X"), NewConsensus("Y")
		return []commuteOp{
			func(p *sched.Proc, v int) string { return fmt.Sprint(x.Propose(p, v)) },
			func(p *sched.Proc, v int) string { return fmt.Sprint(y.Propose(p, v)) },
		}, func() string { return fmt.Sprint(x.decided, x.value, y.decided, y.value) }
	}},
	{name: "KSetAgreement", build: func(int) ([]commuteOp, func() string) {
		x, y := NewKSetAgreement("X", 2), NewKSetAgreement("Y", 1)
		return []commuteOp{
			func(p *sched.Proc, v int) string { return fmt.Sprint(x.Propose(p, v)) },
			func(p *sched.Proc, v int) string { return fmt.Sprint(y.Propose(p, v)) },
		}, func() string { return fmt.Sprint(x.chosen, y.chosen) }
	}},
	{name: "SnapshotObject", build: func(n int) ([]commuteOp, func() string) {
		x := NewSnapshotObject[int]("X", n)
		return []commuteOp{
			func(p *sched.Proc, v int) string { x.Update(p, v); return "" },
			func(p *sched.Proc, _ int) string { return fmtSlices(x.Scan(p)) },
		}, func() string { return fmt.Sprint(x.regs.cells) }
	}},
	{name: "ConstructedMWMR", build: func(n int) ([]commuteOp, func() string) {
		x := NewConstructedMWMR[int]("X", n)
		return []commuteOp{
			func(p *sched.Proc, v int) string { x.Write(p, v); return "" },
			func(p *sched.Proc, _ int) string { return fmtPair(x.Read(p)) },
		}, func() string { return fmt.Sprint(x.slots.cells) }
	}},
}

// commuteStmt is one statement of a process program: op index and
// argument.
type commuteStmt struct{ op, arg int }

// commuteWorld is one run's fresh object instances plus the per-process
// logs of completed operation results.
type commuteWorld struct {
	state func() string
	logs  [][]string
	body  sched.Body
}

func newCommuteWorld(c commuteCase, progs [][]commuteStmt) *commuteWorld {
	n := len(progs)
	ops, state := c.build(n)
	w := &commuteWorld{state: state, logs: make([][]string, n)}
	w.body = func(p *sched.Proc) {
		for _, st := range progs[p.Index()] {
			w.logs[p.Index()] = append(w.logs[p.Index()], ops[st.op](p, st.arg))
		}
		p.Decide(p.Index() + 1)
	}
	return w
}

// randomPrograms draws k statements per process over nops operations;
// one-shot objects get each operation at most once per process.
func randomPrograms(rng *rand.Rand, n, k, nops int, oneShot bool) [][]commuteStmt {
	progs := make([][]commuteStmt, n)
	for i := range progs {
		if oneShot {
			for _, op := range rng.Perm(nops)[:1+rng.Intn(nops)] {
				progs[i] = append(progs[i], commuteStmt{op: op})
			}
			continue
		}
		for range k {
			progs[i] = append(progs[i], commuteStmt{op: rng.Intn(nops), arg: 1 + rng.Intn(3)})
		}
	}
	return progs
}

// nodePolicy walks a scripted prefix (extending it at random up to depth
// steps), then records the pending steps with their ops and aborts the
// run.
type nodePolicy struct {
	rng     *rand.Rand
	script  []int
	depth   int
	pos     int
	pending []int
	ops     []sched.Op
	reached bool
}

func (np *nodePolicy) Next([]int, int) sched.Decision {
	panic("nodePolicy needs the pending ops")
}

func (np *nodePolicy) NextOps(pending []int, ops []sched.Op, _ int) sched.Decision {
	if np.pos < len(np.script) || (np.rng != nil && np.pos < np.depth) {
		if np.pos == len(np.script) {
			np.script = append(np.script, pending[np.rng.Intn(len(pending))])
		}
		d := np.script[np.pos]
		np.pos++
		return sched.Decision{Proc: d}
	}
	np.reached = true
	np.pending = append([]int(nil), pending...)
	np.ops = append([]sched.Op(nil), ops...)
	return sched.Decision{Abort: true}
}

// commuteRun executes the world's programs under script and observes the
// node it stops at: shared state, completed results, decided outputs and
// the next request of every pending process.
func commuteRun(t *testing.T, model sched.MemModel, c commuteCase, progs [][]commuteStmt, np *nodePolicy) string {
	t.Helper()
	w := newCommuteWorld(c, progs)
	res, err := sched.NewRunner(len(progs), sched.DefaultIDs(len(progs)), np, sched.WithModel(model)).Run(w.body)
	if err != nil && !errors.Is(err, sched.ErrRunAborted) {
		t.Fatalf("%s: %v", c.name, err)
	}
	var next []string
	for k, i := range np.pending {
		next = append(next, fmt.Sprintf("%d:%s", i, np.ops[k].Label))
	}
	return fmt.Sprintf("state=%s logs=%q outputs=%v decided=%v next=%v",
		w.state(), w.logs, res.Outputs, res.Decided, strings.Join(next, ","))
}

// TestOpsCommute is the commutation property of IndependentOps for every
// object and every registered memory model.
func TestOpsCommute(t *testing.T) {
	const n, k, nodes = 3, 4, 40
	for _, modelName := range sched.MemModels() {
		model := modelByName(t, modelName)
		for ci, c := range commuteCases {
			t.Run(modelName+"/"+c.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1 + ci)))
				ops, _ := c.build(n) // for the op count only
				nops := len(ops)
				pairs, samePairs := 0, 0
				for range nodes {
					progs := randomPrograms(rng, n, k, nops, c.oneShot)
					walk := &nodePolicy{rng: rng, depth: rng.Intn(4 * n * k)}
					commuteRun(t, model, c, progs, walk)
					if !walk.reached {
						continue // the programs finished before the depth
					}
					prefix := walk.script
					for x := range walk.pending {
						for y := x + 1; y < len(walk.pending); y++ {
							a, b := walk.pending[x], walk.pending[y]
							opA, opB := walk.ops[x], walk.ops[y]
							checkLabelAgreement(t, a, opA, b, opB)
							if !sched.IndependentOps(a, opA, b, opB) {
								continue
							}
							pairs++
							if opA.Obj == opB.Obj {
								samePairs++
							}
							ab := commuteRun(t, model, c, progs, &nodePolicy{script: append(append([]int(nil), prefix...), a, b)})
							ba := commuteRun(t, model, c, progs, &nodePolicy{script: append(append([]int(nil), prefix...), b, a)})
							if ab != ba {
								t.Fatalf("%s then %s does not commute with the reverse order from prefix %v:\n  %s\n  %s",
									opA.Label, opB.Label, prefix, ab, ba)
							}
						}
					}
				}
				if pairs == 0 {
					t.Fatalf("no independent pair was exercised")
				}
				t.Logf("%d independent pairs checked, %d on the same object", pairs, samePairs)
			})
		}
	}
}

// checkLabelAgreement: the typed relation agrees with the label relation
// on the two steps' labels, and each label parses back to its op.
func checkLabelAgreement(t *testing.T, a int, opA sched.Op, b int, opB sched.Op) {
	t.Helper()
	for _, op := range []sched.Op{opA, opB} {
		if got := sched.ParseOp(op.Label); got != op {
			t.Fatalf("ParseOp(%q) = %+v, want the emitted op %+v", op.Label, got, op)
		}
	}
	if typed, labeled := sched.IndependentOps(a, opA, b, opB), sched.OpIndependent(a, opA.Label, b, opB.Label); typed != labeled {
		t.Fatalf("IndependentOps(%q, %q) = %v but OpIndependent = %v", opA.Label, opB.Label, typed, labeled)
	}
}

// TestObjectOpsAgreeWithLabels: every op an object table holds — every
// kind package mem can emit — parses back from its label, and the typed
// and label relations agree on every pair of them across two objects and
// the decide step.
func TestObjectOpsAgreeWithLabels(t *testing.T) {
	var ops []sched.Op
	for _, name := range []string{"X", "Y", "R.bottom", "TAS[1]"} {
		o := sched.Object(name)
		for k := sched.KindRead; k < sched.KindDecide; k++ {
			ops = append(ops, *o.Op(k))
		}
	}
	ops = append(ops, sched.ParseOp("decide"), sched.ParseOp("noop"), sched.ParseOp("X.custom"))
	for _, a := range ops {
		for _, b := range ops {
			checkLabelAgreement(t, 0, a, 1, b)
			if sched.IndependentOps(0, a, 0, b) {
				t.Fatalf("steps of one process never commute: %q, %q", a.Label, b.Label)
			}
		}
	}
}
