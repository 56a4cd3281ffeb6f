// Package simchan models the cost of DEC's Memory Channel: a
// low-latency remote-write cluster interconnect (Gillett, IEEE Micro
// 1996). It is the simulation engine's one fabric: internal/core,
// internal/msync and internal/directory charge their Memory Channel
// traffic to a *Network, and the golden paper configurations pin its
// virtual-time results bit-identical.
//
// The Cashmere protocols depend on four properties of the network
// (paper Section 2.1). The simulator keeps one copy of every shared
// word, written synchronously with sequentially consistent atomics, so
// the semantics of all four hold by construction and only their costs
// are modelled here:
//
//   - Remote writes only. There are no remote reads on the hardware;
//     in the simulator every node reads the one copy, and what the
//     protocols pay is the write.
//   - Write ordering. Two writes issued by one node are observed in
//     issue order by every reader, because each is one sequentially
//     consistent store to the single copy. The protocols additionally
//     write each metadata word from a single node, which is what makes
//     the lock-free directory sound.
//   - Broadcast. One write reaches every receiver: the single copy is
//     what every node reads.
//   - Loop-back. On the hardware a writer that sees its own write come
//     back knows it has been globally performed. Here that moment is
//     the value a write returns: now + MCWriteLatency for a word,
//     Transfer's completion for a bulk transfer.
//
// Costs follow the paper's platform: 5.2 us process-to-process write
// latency, 29 MB/s per-link (PCI-limited) bandwidth, and roughly 60 MB/s
// aggregate through the hub — the first-generation Memory Channel is a
// serial global interconnect, so bulk transfers from all nodes contend
// for it. The contention model is parameterized by costs.Model: the
// per-link and aggregate bandwidths are Model fields, and
// Model.MCFabric can replace the serial hub with a switched (crossbar)
// fabric in which transfers contend only for their source's link and
// aggregate bandwidth scales with the node count.
//
// # Concurrency
//
// All Network methods are safe for concurrent use by any number of
// simulated processors; Transfer serializes bandwidth accounting
// through the sim.Bus mutexes. SetTracer is the one exception: it must
// be called before the network carries traffic (New in internal/core
// calls it during cluster construction).
package simchan

import (
	"fmt"

	"cashmere/internal/costs"
	"cashmere/internal/sim"
	"cashmere/internal/trace"
	"cashmere/internal/transport"
)

// Network is a simulated Memory Channel connecting a fixed set of nodes.
type Network struct {
	nodes int
	model costs.Model
	hub   *sim.Bus // nil under a switched fabric (no shared cap)
	links []*sim.Bus
	tr    *trace.Tracer
}

// New creates a network connecting nodes nodes using the given timing
// model. Under the default serial fabric every transfer also occupies
// the shared hub; under costs.FabricSwitched only the source's link
// gates transfers.
func New(nodes int, model costs.Model) *Network {
	if nodes <= 0 {
		panic("simchan: network needs at least one node")
	}
	n := &Network{
		nodes: nodes,
		model: model,
	}
	if model.MCFabric == costs.FabricSerial {
		n.hub = sim.NewBus(model.MCAggregateBandwidth)
	}
	n.links = make([]*sim.Bus, nodes)
	for i := range n.links {
		n.links[i] = sim.NewBus(model.MCLinkBandwidth)
	}
	return n
}

// Nodes returns the number of nodes on the network.
func (n *Network) Nodes() int { return n.nodes }

// Model returns the network's timing model.
func (n *Network) Model() costs.Model { return n.model }

// LinkBusyNS returns the total virtual time node i's PCI link has been
// occupied by transfers. The accounting is exact — each modelled
// transfer contributes precisely its occupancy — so dividing by the
// run's current virtual time gives the link's true utilization.
func (n *Network) LinkBusyNS(i int) int64 {
	if i < 0 || i >= len(n.links) {
		return 0
	}
	return n.links[i].BusyNS()
}

// HubBusyNS returns the total virtual time the shared hub has been
// occupied, and whether the fabric has a hub at all (a switched fabric
// does not).
func (n *Network) HubBusyNS() (int64, bool) {
	if n.hub == nil {
		return 0, false
	}
	return n.hub.BusyNS(), true
}

// SetTracer attaches a structured event tracer (nil disables tracing).
// The tracer must have at least Nodes() link tracks. Not safe to call
// concurrently with traffic; set it before the simulation starts.
func (n *Network) SetTracer(t *trace.Tracer) { n.tr = t }

// Tracer returns the attached tracer, or nil when tracing is off.
func (n *Network) Tracer() *trace.Tracer { return n.tr }

// Transfer models a bulk transfer of nbytes injected by node src at
// virtual time now and returns the time the data is globally performed.
// The transfer occupies the source's PCI link and the shared hub
// concurrently (the slower of the two gates completion) and then pays
// the network latency.
func (n *Network) Transfer(src int, nbytes int64, now int64) int64 {
	if src < 0 || src >= n.nodes {
		panic(fmt.Sprintf("simchan: transfer from invalid node %d", src))
	}
	if nbytes <= 0 {
		return now + n.model.MCWriteLatency
	}
	done := n.links[src].Use(now, nbytes)
	if n.hub != nil {
		if hubDone := n.hub.Use(now, nbytes); hubDone > done {
			done = hubDone
		}
	}
	done += n.model.MCWriteLatency
	if n.tr != nil {
		n.tr.EmitLink(src, trace.Event{
			Kind: trace.EvLinkTransfer,
			Proc: -1,
			Node: int32(src),
			Page: -1,
			VT:   now,
			Dur:  done - now,
			Arg:  nbytes,
		})
	}
	return done
}

// WordBytes is the size of one shared word. The hardware's write grain
// is 32 bits; the simulator uses 64-bit words so applications can store
// float64 data directly, and charges transfer sizes in these units.
const WordBytes = transport.WordBytes
