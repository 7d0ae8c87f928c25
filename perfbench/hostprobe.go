package main

import (
	"math/rand"
	"slices"
	"time"
)

// The benchmark runs on a shared virtual host whose speed drifts: for
// tens of seconds at a time, goroutine switches and cache misses cost up
// to 1.8 times as much as at other times, while plain arithmetic does not
// slow. Identical jobs then differ by that much from one minute to the
// next, which swamps any change to the program.
//
// hostProbe measures the host's current speed at the operations the
// engine spends its time on: goroutine handoffs over unbuffered channels
// (the runner's coroutine switch) and dependent loads from a working set
// the size of an L2 cache. The probe is benchmark code that never calls
// the program, so a change to the program cannot move it. Every timed
// interval (a job, a fleet pass, a set-up) lies between two probes and is
// scaled by probeRefSeconds / (mean of the two probes): the figures read
// as seconds on a host running at the reference speed.

// probeRefSeconds is the probe's nominal time on the reference host
// (2 vCPUs, go1.24). It is a fixed unit, not a calibration: changing it
// rescales every reported time.
const probeRefSeconds = 0.010

const (
	probeHandoffs = 8000
	probeLoads    = 1_200_000
	probeReps     = 5
)

// probeChain is a random cyclic permutation over 64 Ki int32s (256 KiB):
// following it makes every load depend on the previous one.
var probeChain = func() []int32 {
	r := rand.New(rand.NewSource(1))
	p := r.Perm(64 << 10)
	next := make([]int32, len(p))
	for i := range p {
		next[p[i]] = int32(p[(i+1)%len(p)])
	}
	return next
}()

var probeSink int32

// hostProbe returns the median of probeReps timings of one probe round.
func hostProbe() float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	defer close(ping)
	ts := make([]float64, probeReps)
	for i := range ts {
		t0 := time.Now()
		for j := range probeHandoffs {
			ping <- j
			<-pong
		}
		x := int32(0)
		for range probeLoads {
			x = probeChain[x]
		}
		probeSink += x
		ts[i] = time.Since(t0).Seconds()
	}
	slices.Sort(ts)
	return ts[len(ts)/2]
}

// scaledTimer times intervals between host probes and scales each to
// the reference host speed.
type scaledTimer struct {
	last float64 // the most recent probe
}

func newScaledTimer() *scaledTimer { return &scaledTimer{last: hostProbe()} }

// scale probes the host again and returns d in seconds scaled by the
// mean of the probes taken before and after it.
func (s *scaledTimer) scale(d time.Duration) float64 {
	now := hostProbe()
	f := probeRefSeconds / ((s.last + now) / 2)
	s.last = now
	return d.Seconds() * f
}
