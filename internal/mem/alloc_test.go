package mem

import (
	"testing"

	"repro/internal/gsb"
	"repro/internal/sched"
)

// TestStepAllocs pins the typed step path at zero allocations: on a
// reused runner, a whole run of object operations — Array writes and
// reads, Reg writes and reads, test&set, fetch&increment and task box
// invocations — allocates nothing under the atomic and the (two-phase)
// regular model. Snapshot and Collect return fresh slices to the caller,
// the only allocations an operation makes, so they are not in the body.
func TestStepAllocs(t *testing.T) {
	const n, rounds = 3, 8
	arr := NewArray[int]("A", n)
	reg := NewReg[int]("R")
	tas := NewTASRow("T", rounds)
	fi := NewFetchInc("F")
	draw := DrawTaskBox("B", gsb.Renaming(n, 2*n-1), 1)
	boxes := make([]*TaskBox, rounds)
	for i := range boxes {
		boxes[i] = draw.New()
	}
	resetBoxes := func() {
		for _, b := range boxes {
			b.next = 0
			clear(b.invoked)
		}
	}
	body := func(p *sched.Proc) {
		for i := range rounds {
			arr.Write(p, i)
			arr.Read(p, (p.Index()+1)%n)
			reg.Write(p, i)
			reg.Read(p)
			tas[i].TestAndSet(p)
			fi.FetchInc(p)
			boxes[i].Invoke(p)
		}
		p.Decide(1)
	}
	for _, model := range []string{sched.ModelAtomic, sched.ModelRegular} {
		rr := sched.NewRoundRobin()
		r := sched.NewRunner(n, sched.DefaultIDs(n), rr, sched.WithReuse(), sched.WithModel(modelByName(t, model)))
		run := func() {
			resetBoxes()
			r.Reset(rr)
			if _, err := r.Run(body); err != nil {
				t.Fatal(err)
			}
		}
		run() // grow the runner's schedule scratch
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%s: %v allocs per run of %d object operations, want 0", model, allocs, n*rounds*7)
		}
		r.Close()
	}
}
