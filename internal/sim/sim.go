// Package sim provides the virtual-time machinery of the simulator.
//
// The simulator uses direct execution: each simulated processor really
// executes the application and protocol code, while its *performance* is
// modelled by a per-processor virtual clock measured in nanoseconds.
// Computation and protocol operations advance the clock by amounts taken
// from the cost model; synchronization primitives reconcile clocks
// between processors (a barrier releases everyone at the latest arrival
// time, a lock passes its release time to the next holder, a flag wait
// completes when the setter's write has propagated).
//
// Two shared resources are modelled as serially-occupied buses, matching
// the paper's platform: the Memory Channel (a serial global interconnect,
// Section 3.3.3) and each SMP node's memory bus (whose saturation causes
// the negative clustering effects of SOR and Gauss).
package sim

import (
	"sync/atomic"

	"cashmere/internal/costs"
)

// Clock is a virtual-time clock owned by a single simulated processor.
// Only the owning processor may call its methods.
type Clock struct {
	now int64
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by ns nanoseconds. Negative amounts
// are ignored: virtual time never runs backwards.
func (c *Clock) Advance(ns int64) {
	if ns > 0 {
		c.now += ns
	}
}

// AdvanceTo moves the clock forward to t if t is later than now and
// returns the amount of time skipped (the wait). It returns 0 when t is
// not in the future.
func (c *Clock) AdvanceTo(t int64) int64 {
	if t <= c.now {
		return 0
	}
	d := t - c.now
	c.now = t
	return d
}

// Bus models a serially-occupied shared resource with a fixed bandwidth:
// the Memory Channel hub or an SMP node's memory bus. Transfers are
// granted in the order processors request them; each occupies the bus
// for bytes/bandwidth seconds starting no earlier than the bus's previous
// completion time. Only the running processor calls Use. busy is the
// one atomic: the live metrics layer reads BusyNS mid-run from its
// scrape goroutine (core.Cluster.LinkBusy).
type Bus struct {
	freeAt    int64
	busy      atomic.Int64 // total virtual time the bus has been occupied
	bandwidth int64
}

// NewBus returns a bus with the given bandwidth in bytes per second.
// A zero or negative bandwidth disables contention modelling: transfers
// complete instantaneously.
func NewBus(bandwidth int64) *Bus {
	return &Bus{bandwidth: bandwidth}
}

// maxQueueFactor bounds how long one transfer can wait behind earlier
// reservations, in multiples of its own occupancy. Processor clocks in a
// direct-execution simulation are only loosely synchronized; without a
// bound, a reservation made by a processor whose clock runs ahead would
// stall processors that are behind for arbitrarily long virtual times.
// A factor of 64 admits realistic queues (e.g. 32 processors each
// fetching a page) while damping the cross-epoch feedback.
const maxQueueFactor = 64

// Use requests a transfer of n bytes starting at virtual time now and
// returns the completion time. The transfer begins at max(now, bus free
// time), with the queueing delay bounded by maxQueueFactor occupancies,
// and occupies the bus for its duration.
func (b *Bus) Use(now, n int64) int64 {
	if b == nil || b.bandwidth <= 0 || n <= 0 {
		return now
	}
	occ := costs.Occupancy(n, b.bandwidth)
	end := min(max(now, b.freeAt), now+maxQueueFactor*occ) + occ
	b.freeAt = max(b.freeAt, end)
	b.busy.Add(occ)
	return end
}

// BusyNS returns the total virtual time the bus has been occupied by
// transfers — the exact sum of every granted occupancy (the bus is
// serially occupied, so occupancies never overlap). Dividing by the
// current virtual time yields the bus's utilization; the live metrics
// layer exports that ratio for every Memory Channel link and the hub.
func (b *Bus) BusyNS() int64 {
	if b == nil {
		return 0
	}
	return b.busy.Load()
}

// Stall returns the extra time a computation of ns nanoseconds incurs
// when it issues busBytes of memory traffic on a bus of the given
// bandwidth shared by sharers concurrently-active processors. This
// analytic model (every sharer gets an equal share of the bus) is
// deterministic and fair, unlike timestamp-ordered reservations, which
// misbehave under the loosely-synchronized clocks of direct execution.
func Stall(ns, busBytes, sharers, bandwidth int64) int64 {
	if busBytes <= 0 || bandwidth <= 0 || ns <= 0 {
		return 0
	}
	if sharers < 1 {
		sharers = 1
	}
	need := costs.Occupancy(busBytes*sharers, bandwidth)
	if need <= ns {
		return 0
	}
	return need - ns
}

// FreeAt reports the virtual time at which the bus next becomes free.
func (b *Bus) FreeAt() int64 {
	if b == nil {
		return 0
	}
	return b.freeAt
}

// VLock is a mutual-exclusion lock over virtual time: it computes grant
// times and holds no host lock, so its caller keeps acquires and releases
// in order (the simulator runs one processor at a time). Grants follow
// that order, which may disagree with virtual-time order: a caller whose
// clock is still early may be granted the lock after a holder whose
// critical section lies entirely in the caller's virtual future. Only a
// critical section that virtually overlaps the caller's arrival (it
// began at or before the caller's now) delays the caller — dragging a
// virtually-early acquirer behind a virtually-late holder would
// serialize work that, in virtual time, never contended.
type VLock struct {
	heldAt   int64 // virtual start of the current/most recent critical section
	released int64 // virtual end of the most recent critical section
}

// Acquire takes the lock for a caller whose clock reads now, charging
// cost (the platform's lock acquire latency), and returns the virtual
// time at which the caller holds the lock.
func (l *VLock) Acquire(now, cost int64) int64 {
	held := now
	if now >= l.heldAt && l.released > now {
		held = l.released
	}
	held += cost
	l.heldAt = held
	return held
}

// Release releases the lock, recording now as the critical section's
// virtual end.
func (l *VLock) Release(now int64) {
	if now > l.released {
		l.released = now
	}
}
