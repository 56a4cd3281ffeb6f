// Package tcpchan is the socket transport backend: a fully-connected
// mesh of TCP streams between the ranks of a multi-process run, each
// stream carrying the versioned length-prefixed frames of
// transport/wire. It implements transport.Messenger for the
// multi-process DSM runtime (internal/mprun); the launcher
// (cashmere-run -transport tcp) distributes the rank/address map and
// then every rank calls Connect.
//
// # Mesh construction
//
// Rank i dials every rank j < i and accepts a connection from every
// rank j > i, so each pair of ranks shares exactly one stream and the
// dial/accept pattern is deadlock-free by construction (rank 0 only
// accepts; the highest rank only dials). Each stream opens with a
// wire.Hello exchange — dialer first — that carries the magic number,
// the format version, and the sender's rank; Connect fails on a
// mismatch rather than trusting an unversioned stream.
//
// # Delivery and frame memory
//
// The receiving half is a transport.Inbox. One reader goroutine per
// peer decodes the peer's stream (TCP FIFO, so per-sender order holds)
// through one wire.Reader into payload slices the inbox recycles; the
// inbox's one dispatcher runs the handler, never concurrently with
// itself, and takes the slices back when it returns. A frame sent to
// self is copied into the inbox the same way an shm frame is. Send
// encodes into a buffer the connection keeps, so no frame costs a
// buffer of its own on either side.
package tcpchan

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"cashmere/internal/transport"
	"cashmere/internal/transport/wire"
)

// Endpoint is one rank's side of the TCP mesh. Its Inbox supplies
// SetStats and Err, and the queue its readers and self-sends feed.
type Endpoint struct {
	*transport.Inbox
	self    int
	conns   []*conn // indexed by peer rank; nil at self
	offsets []int64 // estimated peer clock minus local clock, ns; 0 at self
	readers sync.WaitGroup
}

// conn is one peer stream with its write lock (frames are single
// writes, serialized so concurrent senders cannot interleave bytes) and,
// under that lock, the buffer every frame is encoded into. The buffer
// grows to the largest frame sent on the stream.
type conn struct {
	c    net.Conn
	wm   sync.Mutex
	wbuf []byte
}

var _ transport.Messenger = (*Endpoint)(nil)

// Connect builds rank self's endpoint of an n-rank mesh, where
// n = len(addrs) and addrs[j] is rank j's listen address. lis must be
// the listener bound at addrs[self]; Connect takes ownership and
// closes it before returning. It dials the lower ranks, accepts the
// higher ones, and validates every stream's hello exchange.
func Connect(self int, addrs []string, lis net.Listener) (*Endpoint, error) {
	n := len(addrs)
	if self < 0 || self >= n {
		return nil, fmt.Errorf("tcpchan: rank %d outside 0..%d", self, n-1)
	}
	defer lis.Close()
	e := &Endpoint{Inbox: transport.NewInbox(), self: self, conns: make([]*conn, n), offsets: make([]int64, n)}

	fail := func(err error) (*Endpoint, error) {
		for _, pc := range e.conns {
			if pc != nil {
				pc.c.Close()
			}
		}
		return nil, err
	}

	// Dial every lower rank; the dialer speaks first.
	for j := 0; j < self; j++ {
		c, err := net.Dial("tcp", addrs[j])
		if err != nil {
			return fail(fmt.Errorf("tcpchan: rank %d dialing rank %d at %s: %w", self, j, addrs[j], err))
		}
		e.conns[j] = &conn{c: c}
		t0 := time.Now()
		if err := wire.WriteFrame(c, wire.HelloAt(self, t0.UnixNano())); err != nil {
			return fail(fmt.Errorf("tcpchan: rank %d hello to rank %d: %w", self, j, err))
		}
		f, err := wire.ReadFrame(c)
		t1 := time.Now()
		if err != nil {
			return fail(fmt.Errorf("tcpchan: rank %d reading hello from rank %d: %w", self, j, err))
		}
		rank, err := wire.CheckHello(f)
		if err != nil {
			return fail(fmt.Errorf("tcpchan: rank %d handshake with rank %d: %w", self, j, err))
		}
		if rank != j {
			return fail(fmt.Errorf("tcpchan: dialed rank %d but peer identifies as rank %d", j, rank))
		}
		if theta, ok := wire.HelloClock(f); ok {
			// Classic one-sample offset estimate: the peer stamped its
			// hello between our send and our receive, so compare it to
			// the exchange midpoint. Error is bounded by half the RTT.
			e.offsets[j] = theta - (t0.UnixNano()+t1.UnixNano())/2
		}
	}

	// Accept every higher rank, in whatever order they arrive.
	for need := n - 1 - self; need > 0; need-- {
		c, err := lis.Accept()
		if err != nil {
			return fail(fmt.Errorf("tcpchan: rank %d accepting: %w", self, err))
		}
		f, err := wire.ReadFrame(c)
		tRecv := time.Now()
		if err != nil {
			c.Close()
			return fail(fmt.Errorf("tcpchan: rank %d reading hello: %w", self, err))
		}
		rank, err := wire.CheckHello(f)
		if err != nil {
			c.Close()
			return fail(fmt.Errorf("tcpchan: rank %d handshake: %w", self, err))
		}
		if rank <= self || rank >= n || e.conns[rank] != nil {
			c.Close()
			return fail(fmt.Errorf("tcpchan: unexpected connection from rank %d at rank %d", rank, self))
		}
		if err := wire.WriteFrame(c, wire.HelloAt(self, time.Now().UnixNano())); err != nil {
			c.Close()
			return fail(fmt.Errorf("tcpchan: rank %d hello reply to rank %d: %w", self, rank, err))
		}
		if theta, ok := wire.HelloClock(f); ok {
			// One-way estimate: the peer's stamp predates our receipt by
			// the dial-side latency, so this is biased low by one-way
			// delay — tens of microseconds on loopback, good enough to
			// align merged wall-clock traces.
			e.offsets[rank] = theta - tRecv.UnixNano()
		}
		e.conns[rank] = &conn{c: c}
	}
	return e, nil
}

// ClockOffsets returns the estimated clock offset of every peer
// relative to this rank (peer clock minus local clock, nanoseconds;
// zero at self and for peers whose hello carried no stamp), measured
// during the hello exchange. On a single host the true offsets are
// near zero and the estimate's error is bounded by the connection
// round-trip; over a LAN it absorbs genuine wall-clock skew so merged
// traces still line up.
func (e *Endpoint) ClockOffsets() []int64 {
	return append([]int64(nil), e.offsets...)
}

// Self returns the local rank.
func (e *Endpoint) Self() int { return e.self }

// Peers returns the number of ranks in the mesh.
func (e *Endpoint) Peers() int { return len(e.conns) }

// Send delivers f to rank to and is done with f's slices when it
// returns: a frame for a peer has been encoded and written by then, and
// a frame to self is copied into the local inbox like any received
// frame, preserving the per-source order of a node's messages to itself.
func (e *Endpoint) Send(to int, f wire.Frame) error {
	if to < 0 || to >= len(e.conns) {
		return fmt.Errorf("tcpchan: send to invalid rank %d", to)
	}
	e.Stats().RecordSend(to, f)
	if to == e.self {
		return e.Put(e.self, f)
	}
	pc := e.conns[to]
	pc.wm.Lock()
	pc.wbuf = wire.Append(pc.wbuf[:0], f)
	_, err := pc.c.Write(pc.wbuf)
	pc.wm.Unlock()
	if err != nil {
		return fmt.Errorf("tcpchan: send to rank %d: %w", to, err)
	}
	return nil
}

// readBuffer is each peer stream's read buffer: eight full-page frames,
// or a few hundred of the small frames synchronization is made of, per
// read system call.
const readBuffer = 64 << 10

// SetHandler installs the frame handler, starts the inbox's dispatcher
// and one reader goroutine per peer, which decodes the peer's stream
// into the inbox through a buffer. It must be called exactly once,
// before any peer sends protocol traffic. (Connect's hello exchange
// reads the connection directly, exactly one frame, so no byte of the
// stream is stranded in a buffer nobody owns.)
func (e *Endpoint) SetHandler(h func(from int, f wire.Frame)) {
	e.Inbox.SetHandler(h)
	for rank, pc := range e.conns {
		if pc == nil {
			continue
		}
		e.readers.Add(1)
		go func() {
			defer e.readers.Done()
			e.Receive(rank, bufio.NewReaderSize(pc.c, readBuffer))
		}()
	}
}

// Close shuts the endpoint down: already-queued frames are delivered,
// the streams are closed, and the reader and dispatcher goroutines are
// joined. Close is idempotent.
func (e *Endpoint) Close() error {
	e.Inbox.Close()
	for _, pc := range e.conns {
		if pc != nil {
			pc.c.Close()
		}
	}
	e.readers.Wait()
	return nil
}
