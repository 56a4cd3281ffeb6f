package main

import (
	"math"
	"math/rand"
	"time"
)

// The host-speed reference.
//
// The benchmark's host is a shared 2-vCPU VM whose speed drifts by
// 10-30 % for minutes at a time (a neighbour on the sibling hardware
// thread, the shared last-level cache, the hypervisor's halt-polling
// regime): in sizing, the median wall time of a 20-second run of the
// single-threaded simulator workload moved between 1.29 s and 1.72 s
// within ten minutes, and no statistic taken inside a run survives a
// slow period that outlasts it. What does survive is a ratio: around
// every repetition the parent process (idle while its child works) times
// three fixed kernels of its own — integer ALU work, a streaming read,
// a dependent-load chase — and the repetition's wall and CPU seconds are
// scaled by how fast those ran against their nominal times. In sizing
// this cut the run-to-run spread of wall_s from 8-14 % to 2-6 % on every
// workload. The kernels are benchmark code, so a product change cannot
// move them, and their arrays live in the parent, so they are not in any
// workload's peak RSS.
//
// wall_s and cpu_s are therefore seconds on the nominal host: measured
// seconds x host speed. The raw seconds and the speed itself are
// reported beside them (host.wall_raw_s, host.speed).
type reference struct {
	stream []int64 // 64 MB, read front to back
	chase  []int32 // 16 MB, one random cycle
}

// Nominal kernel times: about what this host takes, measured as the
// parent measures them (cold, between a child's repetitions), when
// nothing disturbs it. Only their constancy matters — they fix the
// unit, not a comparison.
const (
	nominalALU    = 25.5e6 // ns
	nominalStream = 26.8e6
	nominalChase  = 22.8e6
)

func newReference() *reference {
	r := &reference{stream: make([]int64, (8<<20)/probeDiv), chase: make([]int32, (4<<20)/probeDiv)}
	for i := range r.stream {
		r.stream[i] = int64(i)
	}
	// A single cycle through every element, so the chase never settles
	// into a short loop that fits a cache.
	perm := rand.New(rand.NewSource(1)).Perm(len(r.chase))
	for i, p := range perm {
		r.chase[p] = int32(perm[(i+1)%len(perm)])
	}
	return r
}

// speed times the three kernels (about 60 ms) and returns the host's
// speed against nominal: the geometric mean of nominal/measured, 1 on
// the undisturbed host, lower when it is slow.
func (r *reference) speed() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 10_000_000/probeDiv; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t1 := time.Now()
	var s int64
	for pass := 0; pass < 2; pass++ {
		for _, v := range r.stream {
			s += v
		}
	}
	t2 := time.Now()
	j := int32(0)
	for i := 0; i < 200_000/probeDiv; i++ {
		j = r.chase[j]
	}
	t3 := time.Now()
	sink.Store(int64(x) + s + int64(j))
	alu, stream, chase := t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	scale := float64(probeDiv)
	return math.Cbrt(nominalALU / (scale * float64(alu)) * nominalStream / (scale * float64(stream)) * nominalChase / (scale * float64(chase)))
}
