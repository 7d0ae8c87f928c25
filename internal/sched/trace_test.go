package sched

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestTimeline(t *testing.T) {
	schedule := []Step{
		{Proc: 0, Op: "A.write"},
		{Proc: 1, Op: "A.read"},
		{Proc: 0, Op: "A.snapshot"},
		{Proc: 2, Crash: true},
		{Proc: 1, Op: "KS.invoke"},
		{Proc: 0, Op: "decide"},
		{Proc: 1, Op: "something.else"},
	}
	got := Timeline(3, schedule)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 { // 3 rows + legend
		t.Fatalf("got %d lines:\n%s", len(lines), got)
	}
	if !strings.Contains(lines[0], "W.S..D.") {
		t.Errorf("p0 row wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], ".R..I.o") {
		t.Errorf("p1 row wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "...x...") {
		t.Errorf("p2 row wrong: %q", lines[2])
	}
}

func TestTimelineEmpty(t *testing.T) {
	if got := Timeline(2, nil); !strings.Contains(got, "empty") {
		t.Errorf("got %q", got)
	}
}

func TestSummary(t *testing.T) {
	schedule := []Step{
		{Proc: 0, Op: "A.write"},
		{Proc: 0, Op: "decide"},
		{Proc: 1, Crash: true},
	}
	got := Summary(2, schedule)
	if !strings.Contains(got, "p0: 2 steps") {
		t.Errorf("summary missing p0 count: %q", got)
	}
	if !strings.Contains(got, "p1: 0 steps (crashed)") {
		t.Errorf("summary missing crash: %q", got)
	}
}

func TestTimelineFromRealRun(t *testing.T) {
	counter := 0
	r := NewRunner(3, DefaultIDs(3), NewRoundRobin())
	res, err := r.Run(counterBody(&counter, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := Timeline(3, res.Schedule)
	if strings.Count(got, "\n") != 4 {
		t.Errorf("unexpected timeline shape:\n%s", got)
	}
	for _, row := range []string{"p0 ", "p1 ", "p2 "} {
		if !strings.Contains(got, row) {
			t.Errorf("missing row %q", row)
		}
	}
}

// foataLevels is the reference Foata normal form: per-level slices,
// filled in schedule order and sorted by process.
func foataLevels(schedule []Step, indep Independence) [][]Step {
	var levels [][]Step
	for _, s := range schedule {
		d := 0
		for l := len(levels); l >= 1; l-- {
			if levelDepends(levels[l-1], s, indep) {
				d = l
				break
			}
		}
		if d == len(levels) {
			levels = append(levels, nil)
		}
		levels[d] = append(levels[d], s)
	}
	for _, level := range levels {
		sort.Slice(level, func(i, j int) bool { return level[i].Proc < level[j].Proc })
	}
	return levels
}

func levelDepends(level []Step, s Step, indep Independence) bool {
	for _, u := range level {
		if dependentStep(u, s, indep) {
			return true
		}
	}
	return false
}

// referenceTraceHash is the reference digest of the Foata normal form:
// hash/fnv's FNV-1a over each level's steps (process as 4 little-endian
// bytes, label, a 0 byte), each level closed by 0xff.
func referenceTraceHash(schedule []Step, indep Independence) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, level := range foataLevels(schedule, indep) {
		for _, s := range level {
			binary.LittleEndian.PutUint32(buf[:], uint32(s.Proc))
			h.Write(buf[:])
			h.Write([]byte(s.Op))
			h.Write([]byte{0})
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// TestCanonicalTraceHashMatchesReference: the scratch-space hash equals
// the reference digest on random schedules of short and long runs (the
// latter past the stack scratch), with labels from every footprint class,
// crash steps included.
func TestCanonicalTraceHashMatchesReference(t *testing.T) {
	labels := []string{"A.read", "A.write", "A.snapshot", "B.read", "B.write-start", "B.write-commit", "KS.invoke", "decide", "noop", ""}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 40, 96, 97, 300} {
		for range 50 {
			schedule := make([]Step, n)
			for i := range schedule {
				schedule[i] = Step{Proc: rng.Intn(4), Op: labels[rng.Intn(len(labels))]}
				if schedule[i].Op == "" {
					schedule[i].Crash = true
				}
			}
			if got, want := CanonicalTraceHash(schedule, OpIndependent), referenceTraceHash(schedule, OpIndependent); got != want {
				t.Fatalf("n=%d: hash %x, reference %x for %v", n, got, want, schedule)
			}
		}
	}
}

// foataString is a test-local, independent rendering of a schedule's
// Foata normal form: steps are placed level by level exactly as
// CanonicalTraceHash does, but the result is the readable level structure
// instead of an FNV digest. Distinct strings are distinct trace classes
// by construction, which makes the hash checkable for collisions.
func foataString(schedule []Step, indep Independence) string {
	var b strings.Builder
	for _, level := range foataLevels(schedule, indep) {
		b.WriteByte('[')
		for _, s := range level {
			fmt.Fprintf(&b, "%d:%s ", s.Proc, s.Op)
		}
		b.WriteByte(']')
	}
	return b.String()
}

// TestTraceHashCollisionSmoke42 enumerates every failure-free schedule of
// the <4,2>-family oracle-box shape (four processes, one conflicting
// "R.invoke" each plus a commuting decide — the step structure of the
// WSB(4)-from-renaming protocol) and cross-checks the Foata hash against
// an independently computed normal form on all of them: equal forms must
// hash equal, distinct forms must hash distinct (the class-coverage
// metric of the sampling subsystem depends on this hash being collision-
// free on real schedule populations), and the class count must be exactly
// the 4! = 24 orderings of the four conflicting invokes.
func TestTraceHashCollisionSmoke42(t *testing.T) {
	const n = 4
	build := func() Body {
		return func(p *Proc) {
			p.Exec("R.invoke", func() any { return nil })
			p.Decide(p.ID())
		}
	}
	byForm := map[string]uint64{}
	byHash := map[uint64]string{}
	schedules := 0
	_, err := Explore(context.Background(), n, DefaultIDs(n),
		ExploreOptions{Workers: 1, MaxSteps: 1000}, build,
		func(res *Result) error {
			schedules++
			form := foataString(res.Schedule, OpIndependent)
			hash := CanonicalTraceHash(res.Schedule, OpIndependent)
			if prev, ok := byForm[form]; ok && prev != hash {
				return fmt.Errorf("same normal form %q hashed %d and %d", form, prev, hash)
			}
			if prev, ok := byHash[hash]; ok && prev != form {
				return fmt.Errorf("hash collision %d: forms %q and %q", hash, prev, form)
			}
			byForm[form] = hash
			byHash[hash] = form
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// (8)!/(2!)^4 = 2520 interleavings, 4! = 24 orders of the invokes.
	if schedules != 2520 {
		t.Errorf("explored %d schedules, want 2520", schedules)
	}
	if len(byForm) != 24 {
		t.Errorf("found %d trace classes, want 24", len(byForm))
	}
}

// TestTraceHashStableAcrossWorkers: the set of class hashes observed over
// a full exploration is identical at 1, 2 and 8 workers — the hash
// depends only on the schedule, never on which worker executed the run,
// so the sampling subsystem's coverage counts are interleaving-
// independent.
func TestTraceHashStableAcrossWorkers(t *testing.T) {
	const n = 3
	build := func() Body {
		shared := 0
		return func(p *Proc) {
			p.Exec(fmt.Sprintf("r%d.write", p.Index()), func() any { return nil })
			v := p.Exec("X.read", func() any { return shared }).(int)
			p.Exec("X.write", func() any { shared = v + 1; return nil })
			p.Decide(p.ID())
		}
	}
	classes := func(workers int) map[uint64]struct{} {
		var mu sync.Mutex
		set := map[uint64]struct{}{}
		_, err := Explore(context.Background(), n, DefaultIDs(n),
			ExploreOptions{Workers: workers, MaxSteps: 1000}, build,
			func(res *Result) error {
				h := CanonicalTraceHash(res.Schedule, OpIndependent)
				mu.Lock()
				set[h] = struct{}{}
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return set
	}
	want := classes(1)
	if len(want) < 2 {
		t.Fatalf("only %d classes; test is vacuous", len(want))
	}
	for _, workers := range []int{2, 8} {
		got := classes(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d classes, want %d", workers, len(got), len(want))
		}
		for h := range want {
			if _, ok := got[h]; !ok {
				t.Errorf("workers=%d: class %d missing", workers, h)
			}
		}
	}
}
