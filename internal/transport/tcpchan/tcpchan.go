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
// # Delivery order
//
// Frames from one peer are delivered in the order sent (TCP FIFO);
// frames from different peers are unordered relative to each other,
// the same per-source guarantee the other backends give. All incoming
// frames are funneled into a single dispatcher goroutine, so the
// handler installed with SetHandler is never invoked concurrently —
// protocol state above needs no locking against itself.
//
// # Frame memory
//
// Neither side builds a buffer per frame. Send encodes into a buffer
// the connection keeps, so the caller's slices are its own again when
// Send returns. A peer's reader decodes through one wire.Reader per
// stream into payload slices taken from the endpoint's recycled lists,
// and the dispatcher puts them back when the handler returns, which is
// why the handler may not keep them (the transport.Messenger contract).
// A frame sent to self is copied into slices from the same lists.
package tcpchan

import (
	"bufio"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"time"

	"cashmere/internal/transport"
	"cashmere/internal/transport/wire"
)

// Endpoint is one rank's side of the TCP mesh.
type Endpoint struct {
	self    int
	conns   []*conn // indexed by peer rank; nil at self
	offsets []int64 // estimated peer clock minus local clock, ns; 0 at self

	mu      sync.Mutex
	cond    *sync.Cond
	inbox   []delivery
	spare   []delivery // the dispatcher's last batch, the next inbox
	started bool
	closed  bool
	failure error

	pool recycler

	stats   *transport.FrameStats
	handler func(from int, f wire.Frame)
	done    chan struct{}
	readers sync.WaitGroup
}

type delivery struct {
	from int
	f    wire.Frame
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

// shelf holds recycled slices of one element type, a list per
// power-of-two capacity: list c holds slices of capacity 1<<c. A
// request is served from the list of the smallest capacity that fits
// it, or by a new slice of that capacity when the list is empty — no
// search, and no slice ever serves a request half its size or smaller.
type shelf[T any] [bits.UintSize][][]T

// get returns a slice of length n > 0 whose elements are unspecified.
func (s *shelf[T]) get(n int) []T {
	c := bits.Len(uint(n - 1))
	if l := s[c]; len(l) > 0 {
		b := l[len(l)-1]
		s[c] = l[:len(l)-1]
		return b[:n]
	}
	return make([]T, n, 1<<c)
}

// copyOf returns src copied into a slice from get, nil for none.
func (s *shelf[T]) copyOf(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	b := s.get(len(src))
	copy(b, src)
	return b
}

// put takes back a slice get returned.
func (s *shelf[T]) put(b []T) {
	if cap(b) > 0 {
		c := bits.TrailingZeros(uint(cap(b)))
		s[c] = append(s[c], b)
	}
}

// recycler owns the payload slices of the frames an endpoint delivers:
// readers and self-sends take them, the dispatcher gives them back when
// the handler has returned. It never frees, and it holds only what is
// not in flight: of each capacity, no more slices than were once queued
// for the handler together — the deepest burst the endpoint has seen.
// Whether a request finds a slice depends on how far the dispatcher lags
// the readers, but every miss deepens a list for good, so what a run
// allocates here is set by its deepest burst, not by its length.
type recycler struct {
	mu  sync.Mutex
	i32 shelf[int32]
	i64 shelf[int64]
}

var _ wire.Allocator = (*recycler)(nil)

func (r *recycler) Int32s(n int) []int32 {
	r.mu.Lock()
	b := r.i32.get(n)
	r.mu.Unlock()
	return b
}

func (r *recycler) Int64s(n int) []int64 {
	r.mu.Lock()
	b := r.i64.get(n)
	r.mu.Unlock()
	return b
}

// clone returns f with its slices copied into recycled ones, and an
// empty one nil: the caller's is only lent, however empty, and reclaim
// would shelve it.
func (r *recycler) clone(f wire.Frame) wire.Frame {
	if len(f.Pages) == 0 && len(f.Offs) == 0 && len(f.Words) == 0 {
		f.Pages, f.Offs, f.Words = nil, nil, nil
		return f
	}
	r.mu.Lock()
	f.Pages, f.Offs, f.Words = r.i32.copyOf(f.Pages), r.i32.copyOf(f.Offs), r.i64.copyOf(f.Words)
	r.mu.Unlock()
	return f
}

// reclaim takes back the slices of a delivered frame.
func (r *recycler) reclaim(f wire.Frame) {
	if cap(f.Pages) == 0 && cap(f.Offs) == 0 && cap(f.Words) == 0 {
		return
	}
	r.mu.Lock()
	r.i32.put(f.Pages)
	r.i32.put(f.Offs)
	r.i64.put(f.Words)
	r.mu.Unlock()
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
	e := &Endpoint{self: self, conns: make([]*conn, n), offsets: make([]int64, n)}
	e.cond = sync.NewCond(&e.mu)

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

// SetStats attaches a frame-statistics collector recording every frame
// this endpoint sends and receives (nil detaches). Call it before the
// mesh carries protocol traffic; the hello exchange is not counted.
func (e *Endpoint) SetStats(s *transport.FrameStats) {
	e.stats = s
}

// Self returns the local rank.
func (e *Endpoint) Self() int { return e.self }

// Peers returns the number of ranks in the mesh.
func (e *Endpoint) Peers() int { return len(e.conns) }

// Send delivers f to rank to and is done with f's slices when it
// returns: a frame for a peer has been encoded and written by then, and
// a frame to self is copied. Sending to self enqueues the frame on the
// local dispatcher like any received frame, preserving the per-source
// order of a node's messages to itself.
func (e *Endpoint) Send(to int, f wire.Frame) error {
	if to < 0 || to >= len(e.conns) {
		return fmt.Errorf("tcpchan: send to invalid rank %d", to)
	}
	if e.stats != nil {
		e.stats.RecordSend(to, f)
	}
	if to == e.self {
		d := delivery{from: e.self, f: e.pool.clone(f)}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return fmt.Errorf("tcpchan: endpoint is closed")
		}
		e.inbox = append(e.inbox, d)
		e.mu.Unlock()
		e.cond.Signal()
		return nil
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

// SetHandler installs the frame handler and starts the per-peer reader
// goroutines and the single dispatcher. It must be called exactly
// once, before any peer sends protocol traffic.
func (e *Endpoint) SetHandler(h func(from int, f wire.Frame)) {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		panic("tcpchan: SetHandler called twice")
	}
	e.handler = h
	e.started = true
	e.done = make(chan struct{})
	e.mu.Unlock()
	for rank, pc := range e.conns {
		if pc == nil {
			continue
		}
		e.readers.Add(1)
		go e.readLoop(rank, pc)
	}
	go e.dispatch()
}

// readBuffer is each peer stream's read buffer: eight full-page frames,
// or a few hundred of the small frames synchronization is made of, per
// read system call.
const readBuffer = 64 << 10

// readLoop decodes rank's stream into the shared inbox until the
// stream ends. It reads through a buffer: a frame is a header and a
// body, two reads, and unbuffered a burst of small frames costs two
// system calls each. (Connect's hello exchange reads the connection
// directly, exactly one frame, so no byte of the stream is stranded
// in a buffer nobody owns.)
func (e *Endpoint) readLoop(rank int, pc *conn) {
	defer e.readers.Done()
	rd := wire.NewReader(bufio.NewReaderSize(pc.c, readBuffer), &e.pool)
	for {
		f, err := rd.Read()
		if err != nil {
			e.mu.Lock()
			if !e.closed && e.failure == nil {
				e.failure = fmt.Errorf("tcpchan: stream from rank %d: %w", rank, err)
			}
			e.mu.Unlock()
			e.cond.Broadcast()
			return
		}
		e.mu.Lock()
		e.inbox = append(e.inbox, delivery{from: rank, f: f})
		e.mu.Unlock()
		e.cond.Signal()
	}
}

// dispatch runs the handler over the inbox in arrival order, one frame
// at a time, and takes each frame's slices back as the handler returns.
// A batch it has worked through is the spare its next swap installs as
// the inbox, so the two grow to the deepest burst and no further.
func (e *Endpoint) dispatch() {
	defer close(e.done)
	for {
		e.mu.Lock()
		for len(e.inbox) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.inbox) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		batch := e.inbox
		e.inbox = e.spare[:0]
		e.mu.Unlock()
		for _, d := range batch {
			if e.stats != nil {
				e.stats.RecordRecv(d.from, d.f)
			}
			e.handler(d.from, d.f)
			e.pool.reclaim(d.f)
		}
		e.spare = batch
	}
}

// Err returns the first stream failure observed by a reader, if any.
// A failure after Close (the expected shutdown path) is not recorded.
func (e *Endpoint) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failure
}

// Close shuts the endpoint down: already-queued frames are delivered,
// the streams are closed, and the reader and dispatcher goroutines are
// joined. Close is idempotent.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		started := e.started
		e.mu.Unlock()
		if started {
			<-e.done
		}
		return nil
	}
	e.closed = true
	started := e.started
	e.mu.Unlock()
	e.cond.Broadcast()
	if started {
		<-e.done
	}
	for _, pc := range e.conns {
		if pc != nil {
			pc.c.Close()
		}
	}
	if started {
		e.readers.Wait()
	}
	return nil
}
