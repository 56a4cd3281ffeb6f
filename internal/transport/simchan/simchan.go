// Package simchan simulates DEC's Memory Channel: a low-latency
// remote-write cluster interconnect (Gillett, IEEE Micro 1996). It is
// the simulation engine's one fabric: internal/core, internal/msync and
// internal/directory hold *Network and *Region directly, and the golden
// paper configurations pin its virtual-time results bit-identical.
//
// The simulation preserves the four properties the Cashmere protocols
// depend on (paper Section 2.1):
//
//   - Remote writes only. A node writes through a transmit mapping and
//     the data appears in the receive regions (local RAM) of every node
//     that maps the region; there are no remote reads, so reading remote
//     state requires either replication-by-broadcast or an explicit
//     request/reply message.
//   - Write ordering. Two writes issued by one node to a region are
//     observed in issue order by every receiver (simulated with
//     sequentially-consistent atomics; the protocols additionally write
//     each metadata word from a single node, which is what makes the
//     lock-free directory sound).
//   - Broadcast. A region may be received by many nodes; one write
//     updates every replica.
//   - Loop-back. A region may be configured so the writer's own receive
//     region is updated by the network; observing one's own write there
//     proves it has been globally performed. Without loop-back a node
//     must "double" writes to its local copy manually.
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
// All Network and Region methods are safe for concurrent use by any
// number of simulated processors. Region words are read and written
// with sequentially-consistent atomics, which is what gives the
// simulated network its write-ordering property; Transfer serializes
// bandwidth accounting through the sim.Bus mutexes. SetTracer is the
// one exception: it must be called before the network carries traffic
// (New in internal/core calls it during cluster construction).
package simchan

import (
	"fmt"
	"sync/atomic"

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
	moved atomic.Int64 // total bytes moved, for accounting and tests
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

// BytesMoved returns the total payload bytes transferred so far.
func (n *Network) BytesMoved() int64 { return n.moved.Load() }

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
	n.moved.Add(nbytes)
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

// WordBytes is the size of one region word. The hardware's write grain
// is 32 bits; the simulator uses 64-bit words so applications can store
// float64 data directly, and charges transfer sizes in these units.
const WordBytes = transport.WordBytes

// Region is a Memory Channel region: words of memory replicated into the
// receive regions of its receiver nodes. Writes through a transmit
// mapping update every receiver's copy.
type Region struct {
	net      *Network
	words    int
	loopback bool
	// recv[i] is node i's receive backing, nil if node i does not map
	// the region for receive. Words are accessed atomically.
	recv [][]int64
}

// NewRegion creates a region of the given word length received by every
// node. loopback configures whether a node's own writes are delivered
// back to its receive region by the network (used for synchronization
// objects); without it, writers must double writes locally via Poke.
func (n *Network) NewRegion(words int, loopback bool) *Region {
	recv := make([][]int64, n.nodes)
	for i := range recv {
		recv[i] = make([]int64, words)
	}
	return &Region{net: n, words: words, loopback: loopback, recv: recv}
}

// NewRegionAt creates a region received only by the given nodes. Writes
// from any node are delivered to those receivers alone — the shape used
// for home-node page copies and per-node metadata areas (paper Figures
// 2 and 3).
func (n *Network) NewRegionAt(words int, loopback bool, receivers ...int) *Region {
	recv := make([][]int64, n.nodes)
	for _, r := range receivers {
		if r < 0 || r >= n.nodes {
			panic(fmt.Sprintf("simchan: invalid receiver node %d", r))
		}
		recv[r] = make([]int64, words)
	}
	return &Region{net: n, words: words, loopback: loopback, recv: recv}
}

// Words returns the region's length in words.
func (r *Region) Words() int { return r.words }

// Network returns the network the region is mapped on.
func (r *Region) Network() *Network { return r.net }

// Receives reports whether node maps the region for receive.
func (r *Region) Receives(node int) bool {
	return node >= 0 && node < len(r.recv) && r.recv[node] != nil
}

// Read returns word off of node's receive region. Reading a region the
// node does not receive is a programming error and panics, mirroring the
// hardware's lack of remote reads.
func (r *Region) Read(node, off int) int64 {
	b := r.recv[node]
	if b == nil {
		panic(fmt.Sprintf("simchan: node %d does not receive this region", node))
	}
	return atomic.LoadInt64(&b[off])
}

// Write performs a remote write of v to word off from node from, at
// virtual time now. The write is posted (the writer does not stall); the
// returned time is when the write has been globally performed, which a
// writer using loop-back can wait for. Without loop-back the writer's
// own receive copy is NOT updated (double manually with Poke).
func (r *Region) Write(from, off int, v int64, now int64) int64 {
	for node, b := range r.recv {
		if b == nil || (node == from && !r.loopback) {
			continue
		}
		atomic.StoreInt64(&b[off], v)
	}
	r.net.moved.Add(WordBytes)
	return now + r.net.model.MCWriteLatency
}

// WriteBlock performs an ordered burst of remote writes of vals starting
// at word off, charging link and hub occupancy for the burst. It returns
// the time the burst is globally performed.
func (r *Region) WriteBlock(from, off int, vals []int64, now int64) int64 {
	for node, b := range r.recv {
		if b == nil || (node == from && !r.loopback) {
			continue
		}
		for i, v := range vals {
			atomic.StoreInt64(&b[off+i], v)
		}
	}
	return r.net.Transfer(from, int64(len(vals))*WordBytes, now)
}

// Poke stores v directly into node's local receive copy without touching
// the network — the "doubling" of writes to the local replica that
// regions without loop-back require (paper Figure 1).
func (r *Region) Poke(node, off int, v int64) {
	b := r.recv[node]
	if b == nil {
		panic(fmt.Sprintf("simchan: node %d does not receive this region", node))
	}
	atomic.StoreInt64(&b[off], v)
}
