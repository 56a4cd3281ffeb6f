package core

import (
	"fmt"
	"strings"
	"testing"

	"cashmere/internal/sim"
	"cashmere/internal/trace"
)

// The executor's synchronization objects: grant times, wakeup order,
// and the deadlock report.

// syncCluster builds a nodes x ppn 2L cluster with nothing shared
// touched, so the only virtual time is the synchronization's own.
func syncCluster(t *testing.T, nodes, ppn int) *Cluster {
	t.Helper()
	c, err := New(testConfig(TwoLevel, nodes, ppn))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLockGrantTime(t *testing.T) {
	c := syncCluster(t, 2, 1)
	cost := c.model.LockAcquire(true)
	var held, second int64
	c.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Compute(1000, 0)
			p.Lock(0)
			held = p.Now()
			p.Compute(500, 0)
			p.Unlock(0)
		case 1:
			// Arrives while processor 0's critical section is virtually
			// active, after P0 has released in host order: it waits for
			// the release.
			p.Compute(1000+cost+100, 0)
			p.Lock(0)
			second = p.Now()
			p.Unlock(0)
		}
	})
	if held != 1000+cost {
		t.Errorf("uncontended acquire held at %d, want %d", held, 1000+cost)
	}
	if want := held + 500 + cost; second != want {
		t.Errorf("overlapping acquire held at %d, want %d", second, want)
	}
}

// TestLockHandOffFollowsVLock: P0 takes the lock and waits for a flag
// P1 sets before P1 asks for the same lock. P1 must queue, P0's unlock
// must hand the lock over, and the grant is the VLock rule applied to
// P1's clock at arrival.
func TestLockHandOffFollowsVLock(t *testing.T) {
	c := syncCluster(t, 2, 1)
	cost := c.model.LockAcquire(true)
	wlat := c.model.MCWriteLatency
	var released, granted int64
	c.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Lock(0)
			p.WaitFlag(0)
			released = p.Now()
			p.Unlock(0)
		case 1:
			p.Compute(cost+1, 0) // arrive inside P0's critical section
			p.SetFlag(0)
			p.Lock(0)
			granted = p.Now()
			p.Unlock(0)
		}
	})
	var ref sim.VLock
	held := ref.Acquire(0, cost)
	if want := max(held, cost+1+wlat); released != want {
		t.Errorf("P0 released at %d, want the flag's visibility %d", released, want)
	}
	ref.Release(released)
	if want := ref.Acquire(cost+1, cost); granted != want || want != released+cost {
		t.Errorf("P1 granted at %d, want %d (release %d + cost %d)", granted, want, released, cost)
	}
}

func TestLockContendedProgress(t *testing.T) {
	// Processors with lock-stepped clocks serialize their critical
	// sections: the last one finishes no earlier than half the
	// serialized total.
	c := syncCluster(t, 2, 2)
	const rounds, cs = 50, 3000
	var counter int
	res := c.Run(func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Lock(0)
			counter++
			p.Compute(cs, 0)
			p.Unlock(0)
		}
	})
	if counter != 4*rounds {
		t.Errorf("counter = %d, want %d", counter, 4*rounds)
	}
	if res.ExecNS < 4*rounds*cs/2 {
		t.Errorf("execution time %d too small for a contended lock", res.ExecNS)
	}
}

func TestBarrierReturnsMaxArrival(t *testing.T) {
	c := syncCluster(t, 3, 1)
	arrive := []int64{100, 300, 200}
	out := make([]int64, 3)
	c.Run(func(p *Proc) {
		p.Compute(arrive[p.ID()], 0)
		p.Barrier()
		out[p.ID()] = p.Now()
	})
	want := 300 + c.bar.cost
	for i, v := range out {
		if v != want {
			t.Errorf("P%d departed at %d, want %d", i, v, want)
		}
	}
}

// TestBarrierChargesModelCost: on a cluster with peers inside and across
// nodes, every processor departs at the latest arrival plus the model's
// barrier cost for the processor count and protocol family.
func TestBarrierChargesModelCost(t *testing.T) {
	for _, k := range []Kind{TwoLevel, OneLevelDiff} {
		c, err := New(testConfig(k, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		arrive := []int64{10, 40, 25, 30}
		out := make([]int64, 4)
		c.Run(func(p *Proc) {
			p.Compute(arrive[p.ID()], 0)
			p.Barrier()
			out[p.ID()] = p.Now()
		})
		want := 40 + c.model.Barrier(4, k.TwoLevelFamily())
		for i, v := range out {
			if v != want {
				t.Errorf("%v: P%d departed at %d, want %d", k, i, v, want)
			}
		}
	}
}

func TestBarrierAcrossGenerations(t *testing.T) {
	// Each round, processor i arrives i*10 ns after the previous
	// departure; every round departs at the latest arrival plus the
	// barrier cost, and a fast processor's next arrival never leaks into
	// the round its peers are still leaving.
	c := syncCluster(t, 2, 2)
	const rounds = 4
	dep := make([][]int64, 4)
	c.Run(func(p *Proc) {
		for r := 0; r < rounds; r++ {
			p.Compute(int64(10*(p.ID()+1)*(r+1)), 0)
			p.Barrier()
			dep[p.ID()] = append(dep[p.ID()], p.Now())
		}
	})
	prev := int64(0)
	for r := 0; r < rounds; r++ {
		want := prev + int64(40*(r+1)) + c.bar.cost
		for i := range dep {
			if dep[i][r] != want {
				t.Errorf("round %d: P%d departed at %d, want %d", r, i, dep[i][r], want)
			}
		}
		prev = want
	}
}

func TestBarrierSingleParty(t *testing.T) {
	c := syncCluster(t, 1, 1)
	var got int64
	c.Run(func(p *Proc) {
		p.Compute(77, 0)
		p.Barrier()
		got = p.Now()
	})
	if want := 77 + c.bar.cost; got != want {
		t.Errorf("single-party barrier departed at %d, want %d", got, want)
	}
}

func TestFlagVisibility(t *testing.T) {
	// A waiter blocked before the set resumes at the set's global
	// visibility, a waiter whose clock is already later keeps its own
	// time, and a waiter arriving after the set does not block.
	c := syncCluster(t, 4, 1)
	vis := 1000 + c.model.MCWriteLatency
	got := make([]int64, 4)
	c.Run(func(p *Proc) {
		switch p.ID() {
		case 0, 1:
			p.Compute([]int64{0, 999999}[p.ID()], 0)
			p.WaitFlag(0)
		case 2:
			p.Compute(1000, 0)
			p.SetFlag(0)
		case 3:
			p.WaitFlag(0) // runs after P2 in the executor's order
		}
		got[p.ID()] = p.Now()
	})
	if got[0] != vis {
		t.Errorf("early waiter resumed at %d, want %d", got[0], vis)
	}
	if got[1] != 999999 {
		t.Errorf("late waiter resumed at %d, want its own time", got[1])
	}
	if got[3] != vis {
		t.Errorf("waiter after the set resumed at %d, want %d", got[3], vis)
	}
}

func TestTracedSyncMessages(t *testing.T) {
	// Locks and flags keep no Memory Channel state, so their link
	// events are the only record of their writes: an acquire, a release
	// and a flag set each emit one msg-send on the node's link track,
	// and the set spans the write's latency.
	cfg := testConfig(TwoLevel, 2, 1)
	cfg.Trace = trace.New(trace.Config{Procs: 2, Links: 2})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var held, rel, set int64
	c.Run(func(p *Proc) {
		if p.ID() == 1 {
			p.Compute(100, 0)
			p.Lock(0)
			held = p.Now()
			p.Compute(5, 0)
			rel = p.Now()
			p.Unlock(0)
			p.Compute(1000, 0)
			set = p.Now()
			p.SetFlag(0)
		}
	})
	want := []struct{ sub, vt, dur int64 }{
		{trace.MsgLockAcquire, held, 0},
		{trace.MsgLockRelease, rel, 0},
		{trace.MsgFlagSet, set, c.model.MCWriteLatency},
	}
	var got []trace.Event
	for _, e := range c.Tracer().Events() {
		if e.Kind == trace.EvMsgSend {
			got = append(got, e)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d msg-send events, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		e := got[i]
		if e.Node != 1 || e.Proc != -1 || e.Arg2 != w.sub || e.VT != w.vt || e.Dur != w.dur {
			t.Errorf("event %d = node %d proc %d sub %d vt %d dur %d, want node 1 proc -1 sub %d vt %d dur %d",
				i, e.Node, e.Proc, e.Arg2, e.VT, e.Dur, w.sub, w.vt, w.dur)
		}
	}
}

// TestDeadlockReport: processor 1 takes lock 0 and returns while P0
// waits at the barrier, P2 for the lock and P3 for a flag nobody sets.
// Run must panic and name each blocked processor, what it waits on,
// and its clock, instead of hanging.
func TestDeadlockReport(t *testing.T) {
	c := syncCluster(t, 4, 1)
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		c.Run(func(p *Proc) {
			switch p.ID() {
			case 0:
				p.Compute(100, 0)
				p.Barrier()
			case 1:
				p.Lock(0)
			case 2:
				p.Compute(200, 0)
				p.Lock(0)
			case 3:
				p.Compute(300, 0)
				p.WaitFlag(2)
			}
		})
	}()
	for _, want := range []string{
		"deadlock",
		"P0 at clock 100: barrier",
		"P2 at clock 200: lock 0, held by P1",
		"P3 at clock 300: flag 2",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("report lacks %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "P1 at") {
		t.Errorf("report names the returned processor:\n%s", msg)
	}
}

// TestReturnBeforeBarrier: a body that returns before a barrier its
// peers wait at is reported, not a hang.
func TestReturnBeforeBarrier(t *testing.T) {
	c := syncCluster(t, 3, 1)
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		c.Run(func(p *Proc) {
			if p.ID() != 1 {
				p.Barrier()
			}
		})
	}()
	for _, want := range []string{"P0 at clock 0: barrier", "P2 at clock 0: barrier"} {
		if !strings.Contains(msg, want) {
			t.Errorf("report lacks %q:\n%s", want, msg)
		}
	}
}
