// Package transport defines the fabric contract the Cashmere protocols
// run over: ordered remote-write regions with broadcast and loop-back,
// explicit point-to-point messaging, and the cost-model hooks the
// simulator charges. The protocol layers (internal/core, internal/msync,
// internal/directory) are written against these interfaces only; the
// concrete fabrics live in the backend packages:
//
//   - transport/simchan — the virtual-time Memory Channel simulator
//     (the paper's platform; the default and the only backend the
//     golden paper configurations run on),
//   - transport/shmchan — an in-process shared-memory fabric for
//     co-located goroutine nodes (frames travel through lock-free
//     rings; no virtual-time coupling),
//   - transport/tcpchan — a TCP fabric whose nodes are separate OS
//     processes exchanging versioned wire frames (transport/wire).
//
// The contract mirrors the four Memory Channel properties of paper
// Section 2.1 — remote writes only, per-source write ordering,
// broadcast, loop-back — plus the explicit request/reply messages the
// hardware's lack of remote reads forces. See docs/TRANSPORT.md for
// the backend matrix and the exact visibility guarantees each backend
// provides.
package transport

import (
	"fmt"

	"cashmere/internal/costs"
	"cashmere/internal/trace"
	"cashmere/internal/transport/wire"
)

// WordBytes is the size of one region word across every backend. The
// hardware's write grain is 32 bits; the fabrics use 64-bit words so
// applications can store float64 data directly, and charge transfer
// sizes in these units.
const WordBytes = 8

// Kind selects a transport backend.
type Kind int

const (
	// Sim is the virtual-time Memory Channel simulator
	// (transport/simchan): bandwidth-contended transfers, the paper's
	// latency model, and bit-reproducible virtual-time results.
	Sim Kind = iota
	// SHM is the in-process shared-memory fabric (transport/shmchan):
	// goroutine nodes exchange frames through lock-free rings with no
	// virtual-time coupling (transfers charge nothing).
	SHM
	// TCP is the socket fabric (transport/tcpchan): cluster nodes are
	// separate OS processes connected by a loopback/LAN mesh speaking
	// the versioned transport/wire format. It cannot host the
	// single-process simulation engine; cashmere-run launches one OS
	// process per node instead (see internal/mprun).
	TCP
)

// String returns the backend's flag spelling.
func (k Kind) String() string {
	switch k {
	case Sim:
		return "sim"
	case SHM:
		return "shm"
	case TCP:
		return "tcp"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a -transport flag value.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "sim":
		return Sim, nil
	case "shm":
		return SHM, nil
	case "tcp":
		return TCP, nil
	}
	return 0, fmt.Errorf(`unknown transport %q (want "sim", "shm", or "tcp")`, s)
}

// Region is a remote-write region: words of memory replicated into the
// receive buffers of its receiver nodes. Writes through a transmit
// mapping update every receiver's copy, in issue order per source;
// there are no remote reads (Read hits the caller's own replica).
//
// Virtual-time parameters and results follow the simulator convention:
// a write is given the writer's current virtual time and returns the
// time the write is globally performed. Backends without a virtual
// clock return now unchanged.
type Region interface {
	// Words returns the region's length in words.
	Words() int
	// Receives reports whether node maps the region for receive.
	Receives(node int) bool
	// Read returns word off of node's receive copy. Reading a region
	// the node does not receive is a programming error and panics,
	// mirroring the hardware's lack of remote reads.
	Read(node, off int) int64
	// Write performs a remote write of v to word off from node from at
	// virtual time now, returning the time the write is globally
	// performed. Without loop-back the writer's own copy is NOT
	// updated (double manually with Poke).
	Write(from, off int, v int64, now int64) int64
	// WriteBlock performs an ordered burst of remote writes of vals
	// starting at word off, charging link occupancy for the burst, and
	// returns the time the burst is globally performed.
	WriteBlock(from, off int, vals []int64, now int64) int64
	// Poke stores v directly into node's local receive copy without
	// touching the network — the "doubling" of writes that regions
	// without loop-back require.
	Poke(node, off int, v int64)
	// Fabric returns the fabric the region is mapped on.
	Fabric() Fabric
}

// Fabric is one interconnect backend connecting a fixed set of nodes.
// All methods are safe for concurrent use by any number of node
// goroutines except SetTracer, which must be called before the fabric
// carries traffic.
type Fabric interface {
	// Kind identifies the backend.
	Kind() Kind
	// Nodes returns the number of nodes on the fabric.
	Nodes() int
	// Model returns the fabric's timing model. Backends without a
	// virtual clock still carry one so protocol layers can read
	// latency constants.
	Model() costs.Model
	// NewRegion creates a region of the given word length received by
	// every node. loopback configures whether a node's own writes are
	// delivered back to its receive copy by the network.
	NewRegion(words int, loopback bool) Region
	// NewRegionAt creates a region received only by the given nodes.
	NewRegionAt(words int, loopback bool, receivers ...int) Region
	// Transfer models a bulk transfer of nbytes injected by node src
	// at virtual time now and returns the time the data is globally
	// performed. This is the cost-model hook the simulator charges
	// bandwidth contention through; backends without a virtual clock
	// return now plus nothing.
	Transfer(src int, nbytes int64, now int64) int64
	// BytesMoved returns the total payload bytes transferred so far.
	BytesMoved() int64
	// LinkBusyNS returns the total virtual time node i's link has been
	// occupied by transfers (zero on backends without contention
	// modelling).
	LinkBusyNS(i int) int64
	// HubBusyNS returns the total virtual time the shared hub has been
	// occupied, and whether the fabric has a hub at all.
	HubBusyNS() (int64, bool)
	// SetTracer attaches a structured event tracer (nil disables
	// tracing). Not safe to call concurrently with traffic.
	SetTracer(t *trace.Tracer)
	// Tracer returns the attached tracer, or nil.
	Tracer() *trace.Tracer
	// Close releases backend resources (connections, goroutines).
	// Close is idempotent; the simulator backend has nothing to
	// release.
	Close() error
}

// Messenger is the explicit point-to-point messaging surface of a
// fabric: the request/reply channel the Memory Channel's lack of
// remote reads forces onto the protocol (page fetches, diffs,
// synchronization traffic).
//
// Delivery. Each endpoint runs its handler on one goroutine, one frame
// at a time: two handler calls never overlap, whoever sent the frames.
// Frames from one sender to one receiver are handled in send order;
// frames from different senders are unordered relative to each other.
// A frame sent to self joins the same queue as frames from peers and
// is handled by the same goroutine, in order with the sender's other
// frames to itself.
//
// Who owns a frame's slices (Pages, Offs, Words). Both sides borrow.
// Send borrows from its caller: when it returns the slices are the
// caller's again, to overwrite or to send once more, and nothing the
// receiver sees changes with them. The handler borrows from the
// transport: when it returns the slices are the transport's again —
// it may decode the next frame into them — so a handler copies out what
// it keeps and never writes into them; while it runs they are its alone
// and hold what was sent. Which side pays for a copy is the backend's
// business (shm copies in Send, tcp copies nowhere: it encodes from the
// sender's slices and decodes into recycled ones).
//
// The simulator backend does not implement Messenger — the simulation
// engine models messages as cost charges against directly-shared
// memory. The shm and tcp backends do; internal/mprun drives the
// multi-process DSM runtime through it.
type Messenger interface {
	// Self returns the local node's rank.
	Self() int
	// Peers returns the number of nodes in the mesh.
	Peers() int
	// Send delivers f to node to, borrowing f's slices until it
	// returns. Sending to self is allowed and loops the frame back
	// through the local handler. Send never blocks on a slow receiver's
	// handler (frames queue).
	Send(to int, f wire.Frame) error
	// SetHandler installs the frame handler, which borrows each frame's
	// slices until it returns. It must be called before any peer can
	// send. The handler is never invoked concurrently with itself.
	SetHandler(h func(from int, f wire.Frame))
	// Close tears the mesh down. Close is idempotent.
	Close() error
}
