package msync

import (
	"sync"
	"testing"

	"cashmere/internal/costs"
	"cashmere/internal/trace"
	"cashmere/internal/transport/simchan"
)

func newNet() *simchan.Network { return simchan.New(4, costs.Default()) }

func TestLockUncontended(t *testing.T) {
	l := NewLock(newNet())
	const cost = 11000
	held := l.Acquire(0, 1000, cost)
	if held != 1000+cost {
		t.Errorf("held at %d, want %d", held, 1000+cost)
	}
	l.Release(0, held+500)
	// An acquirer arriving while the previous critical section was
	// virtually active waits for its release.
	held2 := l.Acquire(1, held+100, cost)
	if held2 != held+500+cost {
		t.Errorf("second acquire held at %d, want %d", held2, held+500+cost)
	}
	l.Release(1, held2)
}

func TestLockMutualExclusion(t *testing.T) {
	l := NewLock(newNet())
	var inside, total int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			now := int64(0)
			for i := 0; i < 200; i++ {
				now = l.Acquire(w%4, now, 11)
				mu.Lock()
				inside++
				if inside != 1 {
					t.Errorf("two holders inside critical section")
				}
				total++
				inside--
				mu.Unlock()
				now += 5
				l.Release(w%4, now)
			}
		}(w)
	}
	wg.Wait()
	if total != 1600 {
		t.Errorf("total = %d, want 1600", total)
	}
}

func TestLockContendedProgress(t *testing.T) {
	// Contending workers with lock-stepped clocks serialize their
	// critical sections: the final virtual time reflects the sum of
	// critical-section lengths, not wall-clock racing.
	l := NewLock(newNet())
	var wg sync.WaitGroup
	finals := make(chan int64, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			now := int64(0)
			for i := 0; i < 100; i++ {
				now = l.Acquire(w, now, 11)
				now += 3
				l.Release(w, now)
			}
			finals <- now
		}(w)
	}
	wg.Wait()
	close(finals)
	var max int64
	for f := range finals {
		if f > max {
			max = f
		}
	}
	// Every critical section costs at least 11+3; with genuine overlap
	// the slowest worker must see a large fraction of the serialized
	// total (4 workers x 100 sections x 14ns = 5600).
	if max < 400*(11+3)/2 {
		t.Errorf("final virtual time %d too small for contended lock", max)
	}
}

func TestBarrier(t *testing.T) {
	b := NewBarrier(3, 58)
	if b.Parties() != 3 {
		t.Errorf("Parties = %d", b.Parties())
	}
	out := make([]int64, 3)
	var wg sync.WaitGroup
	arr := []int64{10, 40, 25}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = b.Wait(arr[i])
		}(i)
	}
	wg.Wait()
	for i, v := range out {
		if v != 40+58 {
			t.Errorf("party %d departed at %d, want 98", i, v)
		}
	}
}

func TestFlag(t *testing.T) {
	net := newNet()
	f := NewFlag(net)
	done := make(chan int64, 2)
	go func() { done <- f.Wait(0) }()
	go func() { done <- f.Wait(999999) }()
	f.Set(2, 1000)
	vis := 1000 + net.Model().MCWriteLatency
	got1, got2 := <-done, <-done
	if got1 > got2 {
		got1, got2 = got2, got1
	}
	// The early waiter resumes at global visibility; the late waiter
	// at its own (later) time.
	if got1 != vis {
		t.Errorf("early waiter resumed at %d, want %d", got1, vis)
	}
	if got2 != 999999 {
		t.Errorf("late waiter resumed at %d, want its own time", got2)
	}
	if got := f.Wait(0); got != vis {
		t.Errorf("waiter after the set resumed at %d, want %d", got, vis)
	}
}

func TestTracedMessages(t *testing.T) {
	// Locks and flags keep no Memory Channel state, so their link
	// events are the only record of their writes: an acquire, a
	// release and a flag set each emit one msg-send on the node's link
	// track, and the set spans the write's latency.
	net := newNet()
	net.SetTracer(trace.New(trace.Config{Links: net.Nodes()}))
	wlat := net.Model().MCWriteLatency
	l := NewLock(net)
	held := l.Acquire(1, 100, 11)
	l.Release(1, held+5)
	NewFlag(net).Set(3, 1000)

	want := []struct {
		node, sub int64
		vt, dur   int64
	}{
		{1, trace.MsgLockAcquire, held, 0},
		{1, trace.MsgLockRelease, held + 5, 0},
		{3, trace.MsgFlagSet, 1000, wlat},
	}
	evs := net.Tracer().Events()
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, w := range want {
		e := evs[i]
		if e.Kind != trace.EvMsgSend || int64(e.Node) != w.node || e.Arg2 != w.sub ||
			e.VT != w.vt || e.Dur != w.dur {
			t.Errorf("event %d = %v node %d sub %d vt %d dur %d, want msg-send node %d sub %d vt %d dur %d",
				i, e.Kind, e.Node, e.Arg2, e.VT, e.Dur, w.node, w.sub, w.vt, w.dur)
		}
	}
}
