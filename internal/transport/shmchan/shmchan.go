// Package shmchan is the in-process messenger mesh: the nodes of a
// cluster are goroutines in one address space, each with one Endpoint
// (a transport.Messenger) exchanging wire.Frames.
//
// An endpoint's queue is a slice under a mutex and a condition
// variable. Send clones the frame (its slices are the caller's again
// when Send returns), appends the clone to the destination's queue and
// signals; one dispatcher goroutine per endpoint takes the whole queue
// at a time and runs the installed handler on each frame, in arrival
// order — so per-sender order holds, and a frame to self takes the same
// path as any other.
//
// internal/mprun's tests run the full wire-frame protocol over it in one
// process, under the race detector, and the repository benchmark its shm
// workload. The simulator's fabric is transport/simchan, not this.
package shmchan

import (
	"fmt"
	"sync"

	"cashmere/internal/transport"
	"cashmere/internal/transport/wire"
)

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
