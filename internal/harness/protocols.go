package harness

import (
	"fmt"
	"sync/atomic"

	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/tasks"
	"repro/internal/universal"
)

// SelectProtocol maps a protocol name — the vocabulary shared by
// cmd/gsbrun and cmd/gsbcampaign — to the task specification it solves
// and a per-run solver constructor. seed seeds the oracle-box assignment
// draws of the protocols that use one, so a protocol selection is fully
// reproducible from (name, n, seed).
//
// Names:
//
//	renaming       snapshot-based adaptive (2n-1)-renaming
//	grid           Moir-Anderson splitter-grid renaming (n(n+1)/2 names)
//	slot-renaming  Figure 2: (n+1)-renaming from an (n-1)-slot object
//	wsb            WSB from a (2n-2)-renaming oracle
//	renaming-wsb   (2n-2)-renaming from a WSB oracle
//	election       election from perfect renaming (TAS row)
//	universal      <n,3,1,n>-GSB via Theorem 8 from perfect renaming
func SelectProtocol(protocol string, n int, seed int64) (gsb.Spec, func(n int) tasks.Solver, error) {
	switch protocol {
	case "renaming":
		return gsb.Renaming(n, 2*n-1),
			func(n int) tasks.Solver { return tasks.NewSnapshotRenaming("R", n) }, nil
	case "grid":
		return gsb.Renaming(n, n*(n+1)/2),
			func(n int) tasks.Solver { return tasks.NewGridRenaming("G", n) }, nil
	case "slot-renaming":
		ks := boxes("KS", n, seed, func(n int) gsb.Spec { return gsb.KSlot(n, n-1) })
		return gsb.Renaming(n, n+1), func(n int) tasks.Solver {
			return tasks.NewSlotRenaming("F2", n, ks(n))
		}, nil
	case "wsb":
		r := boxes("R", n, seed, func(n int) gsb.Spec { return gsb.Renaming(n, 2*n-2) })
		return gsb.WSB(n), func(n int) tasks.Solver {
			return tasks.NewWSBFromRenaming(n, tasks.NewBoxSolver(r(n)))
		}, nil
	case "renaming-wsb":
		wsb := boxes("WSB", n, seed, gsb.WSB)
		return gsb.Renaming(n, 2*n-2), func(n int) tasks.Solver {
			return tasks.NewRenamingFromWSB("RW", n, wsb(n))
		}, nil
	case "election":
		return gsb.Election(n), func(n int) tasks.Solver {
			return tasks.NewElectionFromPerfectRenaming(tasks.NewTASRenaming("TAS", n))
		}, nil
	case "universal":
		spec := gsb.KSlot(n, 3)
		return spec, func(n int) tasks.Solver {
			return universal.New(spec, tasks.NewTASRenaming("TAS", n))
		}, nil
	default:
		return gsb.Spec{}, nil, fmt.Errorf("unknown protocol %q", protocol)
	}
}

// boxes returns a per-run task box constructor for the box named name
// solving spec(n) with the given seed. The spec and the draw are resolved
// on the first build for the selected n — not at selection time, so an
// unusable n still fails where it always did, in the build — and every
// later build only allocates the fresh box. A build for another n falls
// back to resolving its box from scratch.
func boxes(name string, n int, seed int64, spec func(n int) gsb.Spec) func(n int) *mem.TaskBox {
	var draw atomic.Pointer[mem.BoxDraw]
	return func(bn int) *mem.TaskBox {
		if bn != n {
			return mem.NewTaskBox(name, spec(bn), seed)
		}
		d := draw.Load()
		if d == nil {
			// Racing first builds may both draw; the draw is a pure
			// function of (spec, seed), so either result is the same.
			d = mem.DrawTaskBox(name, spec(n), seed)
			draw.Store(d)
		}
		return d.New()
	}
}
