// Package msync implements the application-level synchronization
// primitives of the Cashmere runtime: global locks, barriers, and flags
// (paper Sections 2.2 and 2.3).
//
// Locks are represented on the hardware by a per-node entry array in
// Memory Channel space configured for loop-back: an acquirer takes its
// node's local test-and-set flag, sets its array entry, waits for the
// entry to loop back (proving the write is globally performed), and
// reads the whole array; if its entry is the only one set it holds the
// lock. The simulation resolves the contention race with a host mutex
// and models the algorithm's cost and the virtual-time handoff from the
// previous holder; nothing reads the array, so none is kept, and each
// acquire and release is recorded as a message on the node's link.
//
// Barriers are two-level: processors within a node gather through shared
// memory, the last arrival posts the node's arrival to Memory Channel
// space, and departure is broadcast. Virtual time releases every
// participant at the latest arrival plus the measured barrier cost
// (Table 1), which the cost model interpolates with the participant
// count.
//
// Flags are write-once notifications (Gauss's per-row availability
// flags): the setter's Memory Channel write is globally performed one
// write latency after the set, and waiters resume no earlier than that.
//
// # Concurrency
//
// Lock, Barrier, and Flag methods are safe for concurrent use by any
// number of simulated processors; each primitive must be fully
// constructed before it is shared. Contention races are resolved by
// host mutexes: inside sim.VLock and sim.Rendezvous for locks and
// barriers, and each Flag's own.
package msync

import (
	"cashmere/internal/sim"
	"cashmere/internal/trace"
	"cashmere/internal/transport/simchan"
	"sort"
	"sync"
)

// Lock is a cluster-wide application lock.
type Lock struct {
	net *simchan.Network // traces the lock's messages
	v   sim.VLock
}

// NewLock returns a lock whose messages are traced on net.
func NewLock(net *simchan.Network) *Lock {
	return &Lock{net: net}
}

// Acquire takes the lock on behalf of a processor of physical node node
// whose clock reads now, charging acquireCost (the protocol family's
// measured uncontended latency, which includes the array write's
// loop-back wait). It returns the virtual time at which the lock is
// held: no earlier than the previous holder's release.
func (l *Lock) Acquire(node int, now, acquireCost int64) int64 {
	held := l.v.Acquire(now, acquireCost)
	emitMsg(l.net, node, held, 0, trace.MsgLockAcquire)
	return held
}

// Release releases the lock at virtual time now.
func (l *Lock) Release(node int, now int64) {
	l.v.Release(now)
	emitMsg(l.net, node, now, 0, trace.MsgLockRelease)
}

// Barrier is a cluster-wide application barrier over virtual time.
type Barrier struct {
	r    *sim.Rendezvous
	cost int64
}

// NewBarrier returns a barrier for parties processors with the given
// per-episode cost.
func NewBarrier(parties int, cost int64) *Barrier {
	return &Barrier{r: sim.NewRendezvous(parties), cost: cost}
}

// Wait blocks the caller (whose clock reads now) until every party has
// arrived, and returns the common departure time: the latest arrival
// plus the barrier cost.
func (b *Barrier) Wait(now int64) int64 {
	return b.r.Wait(now) + b.cost
}

// Parties returns the number of processors the barrier synchronizes.
func (b *Barrier) Parties() int { return b.r.Parties() }

// Flag is a cluster-wide set-once notification flag.
//
// Waiters blocked on an unset flag all resume at the same virtual time
// (the set's global visibility), so the order their post-wakeup
// protocol actions run in is a genuine virtual-time tie. WaitOrdered
// breaks the tie deterministically: the processors found blocked at
// the Set instant form a cohort that proceeds one at a time in
// descending waiter id, each releasing the next with its done handle.
// That fixes the order of the equal-time acquire actions, and so which
// outcome of the tie a run takes; it does not reproduce the outcome
// the free broadcast wakeup gives. Only the adaptive engine opts in
// (core's WaitFlag), which made the bistable Gauss/2L+A cell
// reproducible (docs/ADAPTIVE.md); moving the non-adaptive protocols
// onto it changes their virtual times and re-pins their golden values.
type Flag struct {
	net  *simchan.Network // traces the flag's messages
	wlat int64

	mu   sync.Mutex
	cond *sync.Cond
	set  bool
	vis  int64 // global visibility time of the set, valid when set
	// blocked holds the ids of WaitOrdered callers parked on the unset
	// flag; at Set they become the cohort, drained in descending id.
	blocked map[int]struct{}
	cohort  []int
}

// NewFlag returns a flag whose set is charged and traced on net.
func NewFlag(net *simchan.Network) *Flag {
	fl := &Flag{
		net:     net,
		wlat:    net.Model().MCWriteLatency,
		blocked: make(map[int]struct{}),
	}
	fl.cond = sync.NewCond(&fl.mu)
	return fl
}

// Set raises the flag from node at virtual time now. The flag becomes
// globally visible one Memory Channel write latency later.
func (fl *Flag) Set(node int, now int64) {
	visible := now + fl.wlat
	fl.mu.Lock()
	if !fl.set {
		fl.set = true
		fl.vis = visible
		// Snapshot the blocked waiters as the ordered wakeup cohort,
		// drained in descending id. Callers that opt out still wake
		// through the free broadcast below.
		fl.cohort = fl.cohort[:0]
		for id := range fl.blocked {
			fl.cohort = append(fl.cohort, id)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(fl.cohort)))
		clear(fl.blocked)
	}
	fl.mu.Unlock()
	fl.cond.Broadcast()
	emitMsg(fl.net, node, now, fl.wlat, trace.MsgFlagSet)
}

// Wait blocks until the flag is set and returns the earliest virtual
// time the waiter can have observed it: max(now, global visibility).
func (fl *Flag) Wait(now int64) int64 {
	t, done := fl.WaitOrdered(now, -1)
	done()
	return t
}

// WaitOrdered blocks until the flag is set and returns the earliest
// virtual time the waiter can have observed it, plus a done handle the
// caller must invoke after its acquire-side actions. Callers that were
// blocked when the flag was set resume one at a time in descending id —
// the deterministic tie-break for their equal virtual resume times —
// and done releases the next of them. Callers that find the flag
// already set are not part of the tie and proceed immediately (their
// done is a no-op). A negative id opts out of the ordering.
func (fl *Flag) WaitOrdered(now int64, id int) (t int64, done func()) {
	fl.mu.Lock()
	if !fl.set && id >= 0 {
		fl.blocked[id] = struct{}{}
		for !fl.set {
			fl.cond.Wait()
		}
		// We are in the cohort: wait for our turn.
		for len(fl.cohort) > 0 && fl.cohort[0] != id {
			fl.cond.Wait()
		}
		vis := fl.vis
		fl.mu.Unlock()
		if vis > now {
			now = vis
		}
		return now, func() { fl.releaseTurn(id) }
	}
	for !fl.set {
		fl.cond.Wait()
	}
	vis := fl.vis
	fl.mu.Unlock()
	if vis > now {
		now = vis
	}
	return now, func() {}
}

// releaseTurn pops id from the cohort head and wakes the next member.
func (fl *Flag) releaseTurn(id int) {
	fl.mu.Lock()
	if len(fl.cohort) > 0 && fl.cohort[0] == id {
		fl.cohort = fl.cohort[1:]
	}
	fl.mu.Unlock()
	fl.cond.Broadcast()
}

// emitMsg records a synchronization message of the given duration on
// node's link track of the network's tracer, if one is attached.
func emitMsg(net *simchan.Network, node int, vt, dur int64, sub int64) {
	tr := net.Tracer()
	if tr == nil {
		return
	}
	tr.EmitLink(node, trace.Event{
		Kind: trace.EvMsgSend,
		Proc: -1,
		Node: int32(node),
		Page: -1,
		VT:   vt,
		Dur:  dur,
		Arg2: sub,
	})
}
