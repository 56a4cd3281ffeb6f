// Package transport holds what the fabrics of the multi-process runtime
// share: the Messenger contract internal/mprun drives its protocol
// through, the Inbox that is the receiving half of both meshes'
// Messengers, the FrameStats collector every Messenger can carry, and
// the word size. The repository has two engines and each has one seam:
//
//   - the simulation engine (internal/core, internal/directory)
//     charges its traffic to transport/simchan,
//     the virtual-time cost model of the Memory Channel, and holds its
//     types directly — that package documents how the four Memory
//     Channel properties of paper Section 2.1 hold;
//   - the multi-process runtime (internal/mprun) charges no modelled
//     cost: it exchanges versioned wire frames (transport/wire) over a Messenger,
//     which is either transport/shmchan (goroutine nodes in one
//     process) or transport/tcpchan (one OS process per node on a
//     socket mesh); either endpoint is an Inbox plus the way its mesh
//     reaches the peers' inboxes.
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
// and hold what was sent. A frame is copied once, into slices the
// receiving endpoint recycles: Send makes the copy in process, the
// stream decoder makes it over a socket (see Inbox).
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
