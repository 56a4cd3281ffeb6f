// Package transport holds what the fabrics of the multi-process runtime
// share: the Messenger contract internal/mprun drives its protocol
// through, the FrameStats collector every Messenger can carry, and the
// word size. The repository has two engines and each has one seam:
//
//   - the simulation engine (internal/core, internal/msync,
//     internal/directory) maps remote-write regions on
//     transport/simchan, the virtual-time Memory Channel, and holds its
//     types directly — that package documents the four Memory Channel
//     properties of paper Section 2.1;
//   - the multi-process runtime (internal/mprun) never maps a region: it
//     exchanges versioned wire frames (transport/wire) over a Messenger,
//     which is either transport/shmchan (goroutine nodes, a
//     mutex-and-cond FIFO queue per endpoint) or transport/tcpchan
//     (one OS process per node on a socket mesh).
//
// See docs/TRANSPORT.md for the backend matrix and the delivery and
// ownership rules each Messenger keeps.
package transport

import "cashmere/internal/transport/wire"

// WordBytes is the size of one shared-memory word on every fabric. The
// hardware's write grain is 32 bits; the fabrics use 64-bit words so
// applications can store float64 data directly, and charge transfer
// sizes in these units.
const WordBytes = 8

// Messenger is the explicit point-to-point messaging surface of a
// real fabric: the request/reply channel the Memory Channel's lack of
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
// The simulator does not implement Messenger — the simulation engine
// models messages as cost charges against directly-shared memory. The
// shm mesh and tcp do; internal/mprun drives the multi-process DSM
// runtime through it.
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
