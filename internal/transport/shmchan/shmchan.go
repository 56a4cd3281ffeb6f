// Package shmchan is the in-process shared-memory transport backend:
// cluster nodes are goroutines in one address space exchanging region
// writes as frames through lock-free rings. It implements the same
// fabric contract as the Memory Channel simulator (transport/simchan)
// but with no virtual-time coupling: writes and transfers return the
// caller's clock unchanged, and there is no bandwidth contention
// modelling, so LinkBusyNS is always zero and there is no hub.
//
// # Visibility
//
// A remote write enqueues one frame per receiving node into the
// (source, destination) ring; the receiving node applies every pending
// frame at its next Region.Read (drain-on-read). This gives the same
// guarantee the protocols rely on from the simulator backend — a value
// written before a synchronization release is visible to any read
// after the matching acquire — while keeping the write path free of
// locks. Frames from one source are applied in issue order (the ring
// is FIFO); frames from different sources are unordered relative to
// each other, exactly the Memory Channel's per-source ordering.
//
// # Messenger
//
// NewMesh builds the explicit point-to-point messaging surface
// (transport.Messenger) over the same process: one endpoint per node,
// a dispatcher goroutine per node invoking the installed handler in
// arrival order. The multi-process DSM runtime (internal/mprun) uses
// it to exercise the full wire-frame protocol under the race detector
// without spawning OS processes.
package shmchan

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cashmere/internal/costs"
	"cashmere/internal/trace"
	"cashmere/internal/transport"
	"cashmere/internal/transport/wire"
)

// ringSize is the per-(source,destination) frame ring capacity. It
// must be a power of two. A full ring never drops or blocks: the
// producer drains the destination itself and retries.
const ringSize = 256

// frame is one pending region update.
type frame struct {
	src int // issuing node, selecting the (src,dst) ring
	r   *Region
	off int
	v   int64   // single-word payload when val is nil
	val []int64 // block payload (shared read-only across destinations)
}

// slot is one ring entry with its sequence word (Vyukov bounded queue).
type slot struct {
	seq atomic.Uint64
	f   frame
}

// ring is a bounded multi-producer queue; the consumer side is
// serialized by the destination node's drain lock.
type ring struct {
	slots [ringSize]slot
	enq   atomic.Uint64
	deq   atomic.Uint64
}

func newRing() *ring {
	r := &ring{}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push enqueues f, reporting false when the ring is full.
func (q *ring) push(f frame) bool {
	for {
		pos := q.enq.Load()
		s := &q.slots[pos&(ringSize-1)]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if q.enq.CompareAndSwap(pos, pos+1) {
				s.f = f
				s.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			return false // full
		}
		// Another producer moved enq; retry.
	}
}

// pop dequeues the oldest frame. Only the holder of the destination's
// drain lock may call it, so there is a single consumer at a time.
func (q *ring) pop() (frame, bool) {
	for {
		pos := q.deq.Load()
		s := &q.slots[pos&(ringSize-1)]
		seq := s.seq.Load()
		switch {
		case seq == pos+1:
			if q.deq.CompareAndSwap(pos, pos+1) {
				f := s.f
				s.f = frame{}
				s.seq.Store(pos + ringSize)
				return f, true
			}
		case seq <= pos:
			return frame{}, false // empty
		}
	}
}

// Network is an in-process fabric connecting a fixed set of
// goroutine-hosted nodes.
type Network struct {
	nodes int
	model costs.Model
	moved atomic.Int64
	tr    *trace.Tracer

	// rings[src][dst] carries src's pending writes toward dst; drain[dst]
	// serializes the application of dst's incoming frames.
	rings [][]*ring
	drain []sync.Mutex
}

// New creates an in-process fabric for nodes nodes. The timing model is
// carried only so protocol layers can read latency constants; nothing
// is charged against it.
func New(nodes int, model costs.Model) *Network {
	if nodes <= 0 {
		panic("shmchan: network needs at least one node")
	}
	n := &Network{nodes: nodes, model: model, drain: make([]sync.Mutex, nodes)}
	n.rings = make([][]*ring, nodes)
	for src := range n.rings {
		n.rings[src] = make([]*ring, nodes)
		for dst := range n.rings[src] {
			n.rings[src][dst] = newRing()
		}
	}
	return n
}

// Kind identifies the backend as the in-process shared-memory fabric.
func (n *Network) Kind() transport.Kind { return transport.SHM }

// Close is a no-op: the fabric owns no goroutines or descriptors.
func (n *Network) Close() error { return nil }

// Nodes returns the number of nodes on the fabric.
func (n *Network) Nodes() int { return n.nodes }

// Model returns the carried timing model.
func (n *Network) Model() costs.Model { return n.model }

// BytesMoved returns the total payload bytes transferred so far.
func (n *Network) BytesMoved() int64 { return n.moved.Load() }

// LinkBusyNS is always zero: the fabric has no contention model.
func (n *Network) LinkBusyNS(i int) int64 { return 0 }

// HubBusyNS reports no hub.
func (n *Network) HubBusyNS() (int64, bool) { return 0, false }

// SetTracer attaches a structured event tracer (nil disables tracing).
// Set it before the fabric carries traffic.
func (n *Network) SetTracer(t *trace.Tracer) { n.tr = t }

// Tracer returns the attached tracer, or nil.
func (n *Network) Tracer() *trace.Tracer { return n.tr }

// Transfer accounts a bulk transfer and returns now unchanged: the
// fabric charges no virtual time.
func (n *Network) Transfer(src int, nbytes int64, now int64) int64 {
	if src < 0 || src >= n.nodes {
		panic(fmt.Sprintf("shmchan: transfer from invalid node %d", src))
	}
	if nbytes > 0 {
		n.moved.Add(nbytes)
	}
	return now
}

// drainNode applies every frame pending toward node, in per-source
// order.
func (n *Network) drainNode(node int) {
	n.drain[node].Lock()
	n.drainLocked(node)
	n.drain[node].Unlock()
}

func (n *Network) drainLocked(node int) {
	for src := 0; src < n.nodes; src++ {
		q := n.rings[src][node]
		for {
			f, ok := q.pop()
			if !ok {
				break
			}
			f.apply(node)
		}
	}
}

func (f *frame) apply(node int) {
	b := f.r.recv[node]
	if f.val == nil {
		atomic.StoreInt64(&b[f.off], f.v)
		return
	}
	for i, v := range f.val {
		atomic.StoreInt64(&b[f.off+i], v)
	}
}

// post enqueues f toward dst, draining dst ourselves when its ring is
// full so a slow reader never blocks a writer indefinitely.
func (n *Network) post(dst int, f frame) {
	for !n.rings[f.src][dst].push(f) {
		n.drainNode(dst)
		runtime.Gosched()
	}
}

// Region is a replicated remote-write region on the in-process fabric.
type Region struct {
	net      *Network
	words    int
	loopback bool
	recv     [][]int64
}

// NewRegion creates a region of the given word length received by every
// node.
func (n *Network) NewRegion(words int, loopback bool) transport.Region {
	recv := make([][]int64, n.nodes)
	for i := range recv {
		recv[i] = make([]int64, words)
	}
	return &Region{net: n, words: words, loopback: loopback, recv: recv}
}

// NewRegionAt creates a region received only by the given nodes.
func (n *Network) NewRegionAt(words int, loopback bool, receivers ...int) transport.Region {
	recv := make([][]int64, n.nodes)
	for _, r := range receivers {
		if r < 0 || r >= n.nodes {
			panic(fmt.Sprintf("shmchan: invalid receiver node %d", r))
		}
		recv[r] = make([]int64, words)
	}
	return &Region{net: n, words: words, loopback: loopback, recv: recv}
}

// Words returns the region's length in words.
func (r *Region) Words() int { return r.words }

// Fabric returns the fabric the region is mapped on.
func (r *Region) Fabric() transport.Fabric { return r.net }

// Receives reports whether node maps the region for receive.
func (r *Region) Receives(node int) bool {
	return node >= 0 && node < len(r.recv) && r.recv[node] != nil
}

// Read applies node's pending incoming frames and returns word off of
// its receive copy.
func (r *Region) Read(node, off int) int64 {
	b := r.recv[node]
	if b == nil {
		panic(fmt.Sprintf("shmchan: node %d does not receive this region", node))
	}
	r.net.drainNode(node)
	return atomic.LoadInt64(&b[off])
}

// Write posts a remote write of v to word off from node from. The
// writer's own copy is updated immediately under loop-back; remote
// copies see the value at their next Read. Returns now unchanged.
func (r *Region) Write(from, off int, v int64, now int64) int64 {
	for node, b := range r.recv {
		if b == nil {
			continue
		}
		if node == from {
			if r.loopback {
				atomic.StoreInt64(&b[off], v)
			}
			continue
		}
		r.net.post(node, frame{src: from, r: r, off: off, v: v})
	}
	r.net.moved.Add(transport.WordBytes)
	return now
}

// WriteBlock posts an ordered burst of remote writes of vals starting
// at word off. The payload is copied once and shared read-only across
// destinations. Returns now unchanged.
func (r *Region) WriteBlock(from, off int, vals []int64, now int64) int64 {
	var shared []int64
	for node, b := range r.recv {
		if b == nil {
			continue
		}
		if node == from {
			if r.loopback {
				for i, v := range vals {
					atomic.StoreInt64(&b[off+i], v)
				}
			}
			continue
		}
		if shared == nil {
			shared = append([]int64(nil), vals...)
		}
		r.net.post(node, frame{src: from, r: r, off: off, val: shared})
	}
	r.net.moved.Add(int64(len(vals)) * transport.WordBytes)
	return now
}

// Poke stores v directly into node's local receive copy.
func (r *Region) Poke(node, off int, v int64) {
	b := r.recv[node]
	if b == nil {
		panic(fmt.Sprintf("shmchan: node %d does not receive this region", node))
	}
	atomic.StoreInt64(&b[off], v)
}

// Mesh is an in-process messenger mesh: one endpoint per node,
// exchanging wire frames through per-node FIFO queues with a
// dispatcher goroutine per endpoint.
type Mesh struct {
	eps []*Endpoint
}

// NewMesh builds a messenger mesh of n endpoints. Install each
// endpoint's handler with SetHandler before any peer sends.
func NewMesh(n int) *Mesh {
	if n <= 0 {
		panic("shmchan: mesh needs at least one endpoint")
	}
	m := &Mesh{eps: make([]*Endpoint, n)}
	for i := range m.eps {
		e := &Endpoint{mesh: m, self: i}
		e.cond = sync.NewCond(&e.mu)
		m.eps[i] = e
	}
	return m
}

// Endpoint returns node i's messenger.
func (m *Mesh) Endpoint(i int) *Endpoint { return m.eps[i] }

// queued is one frame in flight with its sender.
type queued struct {
	from int
	f    wire.Frame
}

// Endpoint is one node's side of the mesh.
type Endpoint struct {
	mesh *Mesh
	self int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []queued
	closed bool

	stats   *transport.FrameStats
	started bool
	handler func(from int, f wire.Frame)
	done    chan struct{}
}

// SetStats attaches a frame-statistics collector recording every frame
// this endpoint sends and receives (nil detaches). Call it before the
// mesh carries protocol traffic.
func (e *Endpoint) SetStats(s *transport.FrameStats) {
	e.stats = s
}

// Self returns the local node's rank.
func (e *Endpoint) Self() int { return e.self }

// Peers returns the number of endpoints in the mesh.
func (e *Endpoint) Peers() int { return len(e.mesh.eps) }

// Send delivers f to endpoint to in arrival order; sending to self
// loops the frame through the local handler like any other. What is
// queued is the frame struct, so Send copies f's slices: they are the
// caller's again when it returns, and the copies are the receiver's.
func (e *Endpoint) Send(to int, f wire.Frame) error {
	if to < 0 || to >= len(e.mesh.eps) {
		return fmt.Errorf("shmchan: send to invalid endpoint %d", to)
	}
	if e.stats != nil {
		e.stats.RecordSend(to, f)
	}
	q := queued{from: e.self, f: f.Clone()}
	dst := e.mesh.eps[to]
	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		return fmt.Errorf("shmchan: endpoint %d is closed", to)
	}
	dst.queue = append(dst.queue, q)
	dst.mu.Unlock()
	dst.cond.Signal()
	return nil
}

// SetHandler installs the frame handler and starts the endpoint's
// dispatcher. It must be called exactly once, before any peer sends.
func (e *Endpoint) SetHandler(h func(from int, f wire.Frame)) {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		panic("shmchan: SetHandler called twice")
	}
	e.handler = h
	e.started = true
	e.done = make(chan struct{})
	e.mu.Unlock()
	go e.dispatch()
}

func (e *Endpoint) dispatch() {
	defer close(e.done)
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		batch := e.queue
		e.queue = nil
		e.mu.Unlock()
		for _, q := range batch {
			if e.stats != nil {
				e.stats.RecordRecv(q.from, q.f)
			}
			e.handler(q.from, q.f)
		}
	}
}

// Close shuts the endpoint down after delivering already-queued frames.
// Close is idempotent.
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
	return nil
}
