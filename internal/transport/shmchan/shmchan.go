// Package shmchan is the in-process messenger mesh: the nodes of a
// cluster are goroutines in one address space, each with one Endpoint
// (a transport.Messenger) exchanging wire.Frames.
//
// An endpoint is a transport.Inbox with a rank. Send copies the frame
// into the destination's inbox, into slices that inbox recycles, so the
// caller's slices are its own again when Send returns; the inbox's one
// dispatcher runs the handler on each frame in arrival order and takes
// the slices back when it returns. A frame to self takes the same path
// as any other.
//
// internal/mprun's tests run the full wire-frame protocol over it in one
// process, under the race detector, and the repository benchmark its shm
// workload. The simulator's fabric is transport/simchan, not this.
package shmchan

import (
	"fmt"

	"cashmere/internal/transport"
	"cashmere/internal/transport/wire"
)

// Mesh is an in-process messenger mesh: one endpoint per node.
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
		m.eps[i] = &Endpoint{Inbox: transport.NewInbox(), mesh: m, self: i}
	}
	return m
}

// Endpoint returns node i's messenger.
func (m *Mesh) Endpoint(i int) *Endpoint { return m.eps[i] }

// Endpoint is one node's side of the mesh. Its Inbox supplies
// SetHandler, SetStats, Close and Err.
type Endpoint struct {
	*transport.Inbox
	mesh *Mesh
	self int
}

// Self returns the local node's rank.
func (e *Endpoint) Self() int { return e.self }

// Peers returns the number of endpoints in the mesh.
func (e *Endpoint) Peers() int { return len(e.mesh.eps) }

// Send copies f into endpoint to's inbox; sending to self loops the
// frame through the local handler like any other. It fails if that
// endpoint is closed.
func (e *Endpoint) Send(to int, f wire.Frame) error {
	if to < 0 || to >= len(e.mesh.eps) {
		return fmt.Errorf("shmchan: send to invalid endpoint %d", to)
	}
	e.Stats().RecordSend(to, f)
	return e.mesh.eps[to].Put(e.self, f)
}
