package core

import (
	"fmt"
	"iter"
	"strings"

	"cashmere/internal/sim"
)

// Serial execution and the application synchronization objects.
//
// Run gives every simulated processor a coroutine (iter.Pull), but only
// one runs at a time, in the style of the Wisconsin Wind Tunnel
// (Reinhardt et al., SIGMETRICS 1993). A processor runs until it blocks
// — on a lock another processor holds, on an unset flag, or at a
// barrier (the application barrier or the adaptive decision gate) — or
// returns. The executor then resumes the head of a FIFO ready queue,
// which starts as global ids 0..N-1 and to which each wakeup appends:
//
//   - a barrier's last arrival readies the waiters in arrival order and
//     runs on;
//   - a flag set readies the flag's waiters in the order they began
//     waiting;
//   - an unlock hands the lock to its first queued waiter and readies it.
//
// No switch happens inside a protocol action, so protocol state needs no
// host lock, and a run — every virtual time, every tie — is a pure
// function of the configuration and the program.
//
// Virtual time is the cost model's: a lock grant follows
// sim.VLock's overlap rule, a barrier releases everyone at the latest
// arrival plus the barrier cost, and a flag wait ends at the later of
// the waiter's clock and the set's global visibility (the set time plus
// one Memory Channel write latency).
//
// Locks are represented on the hardware by a per-node entry array in
// Memory Channel space configured for loop-back (paper Section 2.2); the
// cost model charges the algorithm and nothing reads the array, so none
// is kept, and each acquire, release and flag set is recorded as a
// message on the node's link track. Barriers are two-level (local
// gather, then a Memory Channel broadcast), charged by the cost model's
// interpolation of Table 1.

// waitKind names what a blocked processor waits on.
type waitKind int

const (
	waitNone waitKind = iota
	waitLock
	waitFlag
	waitBarrier
	waitDecision
)

// aborted unwinds a blocked processor's coroutine after a deadlock.
type aborted struct{}

// lock is an application lock: its virtual-time grant rule, its holder and
// the processors queued behind it.
type lock struct {
	v      sim.VLock
	holder *Proc // nil while free
	queue  []*Proc
}

// flag is a set-once notification flag (Gauss's per-row flags).
type flag struct {
	set     bool
	vis     int64 // global visibility of the set, valid when set
	waiting []*Proc
}

// barrier is a cluster-wide rendezvous over virtual time.
type barrier struct {
	cost int64
	// latest is the running maximum of arrival times. It is never reset:
	// every processor departs at its release time, so the next episode's
	// arrivals are at least the previous maximum.
	latest  int64
	waiting []*Proc
}

// Run executes body on every simulated processor, one at a time (see
// above), and returns the aggregated statistics. It may be called once
// per cluster. If every processor that has not returned is blocked, Run
// panics with a message naming each of them, what it waits on, and its
// clock.
func (c *Cluster) Run(body func(p *Proc)) Result {
	for _, p := range c.procs {
		p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			body(p)
		})
		c.ready = append(c.ready, p)
	}
	for len(c.ready) > 0 {
		p := c.ready[0]
		c.ready = c.ready[1:]
		if _, ok := p.resume(); !ok {
			p.done = true
		}
	}
	if report := c.deadlock(); report != "" {
		panic(report)
	}

	finish := make([]int64, len(c.procs))
	for i, p := range c.procs {
		finish[i] = p.clk.Now()
	}
	return Result{Total: c.SnapshotStats(), Finish: finish}
}

// deadlock returns "" when every processor has returned. Otherwise it
// describes the blocked ones and unwinds their coroutines.
func (c *Cluster) deadlock() string {
	var b strings.Builder
	for _, p := range c.procs {
		if p.done {
			continue
		}
		if b.Len() == 0 {
			b.WriteString("core: deadlock: every live processor is blocked")
		}
		fmt.Fprintf(&b, "\n  P%d at clock %d: ", p.global, p.clk.Now())
		switch p.waitOn {
		case waitLock:
			fmt.Fprintf(&b, "lock %d, held by P%d", p.waitID, c.locks[p.waitID].holder.global)
		case waitFlag:
			fmt.Fprintf(&b, "flag %d", p.waitID)
		case waitBarrier:
			b.WriteString("barrier")
		case waitDecision:
			b.WriteString("decision gate")
		}
	}
	for _, p := range c.procs {
		if !p.done {
			func() {
				defer func() {
					if r := recover(); r != nil && r != (aborted{}) {
						panic(r)
					}
				}()
				p.stop()
			}()
		}
	}
	return b.String()
}

// block suspends p until another processor readies it.
func (p *Proc) block(on waitKind, id int) {
	if p.yield == nil {
		panic("core: a synchronization operation blocked outside Cluster.Run")
	}
	p.waitOn, p.waitID = on, id
	if !p.yield(struct{}{}) {
		panic(aborted{})
	}
	p.waitOn = waitNone
}

// acquireLock takes lock i for p and returns the virtual time at which
// p holds it: the VLock rule applied to p's clock at arrival, with cost
// the protocol family's uncontended acquire latency. A held lock queues
// p until the holder's release hands it over.
func (c *Cluster) acquireLock(p *Proc, i int, cost int64) int64 {
	l := c.locks[i]
	if l.holder != nil {
		l.queue = append(l.queue, p)
		p.block(waitLock, i)
		return p.grant
	}
	l.holder = p
	return l.v.Acquire(p.clk.Now(), cost)
}

// releaseLock releases lock i at virtual time now and hands it to the
// first queued waiter, whose clock has stood still since it arrived.
func (c *Cluster) releaseLock(i int, now, cost int64) {
	l := c.locks[i]
	l.v.Release(now)
	l.holder = nil
	if len(l.queue) == 0 {
		return
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	l.holder = w
	w.grant = l.v.Acquire(w.clk.Now(), cost)
	c.ready = append(c.ready, w)
}

// setFlag raises flag i at virtual time now; it becomes globally
// visible one Memory Channel write latency later.
func (c *Cluster) setFlag(i int, now int64) {
	f := c.flags[i]
	if f.set {
		return
	}
	f.set = true
	f.vis = now + c.model.MCWriteLatency
	c.ready = append(c.ready, f.waiting...)
	f.waiting = nil
}

// waitFlag blocks p until flag i is set and returns the earliest
// virtual time p can have observed it.
func (c *Cluster) waitFlag(p *Proc, i int) int64 {
	f := c.flags[i]
	if !f.set {
		f.waiting = append(f.waiting, p)
		p.block(waitFlag, i)
	}
	return max(p.clk.Now(), f.vis)
}

// await records p's arrival at b and returns the common departure
// time, the latest arrival plus the barrier's cost, once every
// processor has arrived.
func (c *Cluster) await(b *barrier, p *Proc, on waitKind) int64 {
	b.latest = max(b.latest, p.clk.Now())
	if len(b.waiting)+1 < len(c.procs) {
		b.waiting = append(b.waiting, p)
		p.block(on, 0)
		return p.grant
	}
	release := b.latest + b.cost
	for _, w := range b.waiting {
		w.grant = release
	}
	c.ready = append(c.ready, b.waiting...)
	b.waiting = b.waiting[:0]
	return release
}
