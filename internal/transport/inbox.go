package transport

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"cashmere/internal/transport/wire"
)

// Inbox is the receiving half of a Messenger, the part both meshes
// share by embedding it: the queue of deliveries, the one dispatcher
// goroutine that runs the handler over it, SetHandler, Close, Err and
// the receive-side FrameStats. Frames enter by Put, which copies a
// frame sent in process, or by Receive, which decodes a byte stream;
// either way their slices come from the inbox's recycler, and go back
// to it when the handler returns (the ownership rule of Messenger).
type Inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []delivery
	spare   []delivery // the dispatcher's last batch, the next queue
	started bool
	closed  bool
	failure error

	pool    recycler
	stats   *FrameStats
	handler func(from int, f wire.Frame)
	done    chan struct{}
}

type delivery struct {
	from int
	f    wire.Frame
}

var errClosed = errors.New("transport: endpoint is closed")

// NewInbox returns an inbox with no handler; SetHandler starts it.
func NewInbox() *Inbox {
	in := &Inbox{done: make(chan struct{})}
	in.cond = sync.NewCond(&in.mu)
	return in
}

// SetStats attaches a frame-statistics collector recording every frame
// the endpoint sends and receives (nil detaches). Call it before the
// mesh carries protocol traffic.
func (in *Inbox) SetStats(s *FrameStats) { in.stats = s }

// Stats returns the collector SetStats attached, for the send side.
func (in *Inbox) Stats() *FrameStats { return in.stats }

// SetHandler installs the frame handler and starts the dispatcher. It
// must be called exactly once, before any peer sends.
func (in *Inbox) SetHandler(h func(from int, f wire.Frame)) {
	in.mu.Lock()
	if in.started {
		in.mu.Unlock()
		panic("transport: SetHandler called twice")
	}
	in.handler, in.started = h, true
	in.mu.Unlock()
	go in.dispatch()
}

// Put queues f as sent by rank from, its slices copied into recycled
// ones, so they are the sender's again when Put returns. It fails once
// the inbox is closed.
func (in *Inbox) Put(from int, f wire.Frame) error {
	return in.push(from, in.pool.clone(f))
}

// Receive decodes the frames of stream r, all sent by rank from, into
// the queue, their slices from the recycler, until the stream ends or
// the inbox is closed. The first stream to end before Close is the
// inbox's Err. A frame is a header and a body, two reads, so r wants to
// be buffered.
func (in *Inbox) Receive(from int, r io.Reader) {
	rd := wire.NewReader(r, &in.pool)
	for {
		f, err := rd.Read()
		if err != nil {
			in.mu.Lock()
			if !in.closed && in.failure == nil {
				in.failure = fmt.Errorf("transport: stream from rank %d: %w", from, err)
			}
			in.mu.Unlock()
			return
		}
		if in.push(from, f) != nil {
			return
		}
	}
}

// push queues a frame whose slices are the recycler's, or hands them
// back if the inbox is closed.
func (in *Inbox) push(from int, f wire.Frame) error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		in.pool.reclaim(f)
		return errClosed
	}
	in.queue = append(in.queue, delivery{from, f})
	in.mu.Unlock()
	in.cond.Signal()
	return nil
}

// dispatch runs the handler over the queue in arrival order, one frame
// at a time, and takes each frame's slices back as the handler returns.
// A batch it has worked through is the spare its next swap installs as
// the queue, so the two grow to the deepest burst and no further.
func (in *Inbox) dispatch() {
	defer close(in.done)
	for {
		in.mu.Lock()
		for len(in.queue) == 0 && !in.closed {
			in.cond.Wait()
		}
		if len(in.queue) == 0 {
			in.mu.Unlock()
			return
		}
		batch := in.queue
		in.queue = in.spare[:0]
		in.mu.Unlock()
		for _, d := range batch {
			in.stats.RecordRecv(d.from, d.f)
			in.handler(d.from, d.f)
			in.pool.reclaim(d.f)
		}
		in.spare = batch
	}
}

// Err returns the first stream failure Receive observed, if any. A
// failure after Close (the expected shutdown path) is not recorded.
func (in *Inbox) Err() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.failure
}

// Close refuses further frames, runs the handler over those already
// queued, and joins the dispatcher. Close is idempotent.
func (in *Inbox) Close() error {
	in.mu.Lock()
	in.closed = true
	started := in.started
	in.mu.Unlock()
	in.cond.Broadcast()
	if started {
		<-in.done
	}
	return nil
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

// recycler owns the payload slices of the frames an inbox delivers:
// Put and Receive take them, the dispatcher gives them back when the
// handler has returned. It never frees, and it holds only what is not
// in flight: of each capacity, no more slices than were once queued for
// the handler together — the deepest burst the inbox has seen. Whether
// a request finds a slice depends on how far the dispatcher lags the
// senders, but every miss deepens a list for good, so what a run
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
