package shmchan

import (
	"sync"
	"testing"

	"cashmere/internal/transport"
	"cashmere/internal/transport/wire"
)

func TestMeshDelivery(t *testing.T) {
	m := NewMesh(3)
	type rcv struct {
		from int
		f    wire.Frame
	}
	got := make([]chan rcv, 3)
	for i := 0; i < 3; i++ {
		got[i] = make(chan rcv, 16)
		e, ch := m.Endpoint(i), got[i]
		if e.Self() != i {
			t.Fatalf("Self = %d, want %d", e.Self(), i)
		}
		if e.Peers() != 3 {
			t.Fatalf("Peers = %d, want 3", e.Peers())
		}
		e.SetHandler(func(from int, f wire.Frame) { ch <- rcv{from, f} })
	}
	if err := m.Endpoint(0).Send(1, wire.Frame{Type: wire.TBarArrive, A: 7}); err != nil {
		t.Fatal(err)
	}
	if err := m.Endpoint(2).Send(1, wire.Frame{Type: wire.TFlagSet, A: 8}); err != nil {
		t.Fatal(err)
	}
	seen := map[int]int64{}
	for i := 0; i < 2; i++ {
		r := <-got[1]
		seen[r.from] = r.f.A
	}
	if seen[0] != 7 || seen[2] != 8 {
		t.Fatalf("endpoint 1 received %v, want {0:7, 2:8}", seen)
	}
	// Self-send loops through the local handler.
	if err := m.Endpoint(1).Send(1, wire.Frame{Type: wire.TBye, A: 9}); err != nil {
		t.Fatal(err)
	}
	if r := <-got[1]; r.from != 1 || r.f.A != 9 {
		t.Fatalf("self-send delivered (%d, %d), want (1, 9)", r.from, r.f.A)
	}
	for i := 0; i < 3; i++ {
		if err := m.Endpoint(i).Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMeshOrderPerSender(t *testing.T) {
	const frames = 200
	m := NewMesh(2)
	seq := make(chan int64, frames)
	m.Endpoint(1).SetHandler(func(from int, f wire.Frame) { seq <- f.A })
	m.Endpoint(0).SetHandler(func(from int, f wire.Frame) {})
	for i := 0; i < frames; i++ {
		if err := m.Endpoint(0).Send(1, wire.Frame{Type: wire.TDiff, A: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		if got := <-seq; got != int64(i) {
			t.Fatalf("frame %d delivered out of order (got %d)", i, got)
		}
	}
	m.Endpoint(0).Close()
	m.Endpoint(1).Close()
}

func TestMeshCloseSemantics(t *testing.T) {
	m := NewMesh(2)
	var mu sync.Mutex
	count := 0
	m.Endpoint(1).SetHandler(func(from int, f wire.Frame) { mu.Lock(); count++; mu.Unlock() })
	m.Endpoint(0).SetHandler(func(from int, f wire.Frame) {})
	for i := 0; i < 10; i++ {
		if err := m.Endpoint(0).Send(1, wire.Frame{Type: wire.TPageReq}); err != nil {
			t.Fatal(err)
		}
	}
	// Close drains already-queued frames before returning, and is
	// idempotent.
	if err := m.Endpoint(1).Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Endpoint(1).Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if count != 10 {
		mu.Unlock()
		t.Fatalf("handler ran %d times before Close returned, want 10", count)
	}
	mu.Unlock()
	if err := m.Endpoint(0).Send(1, wire.Frame{Type: wire.TPageReq}); err == nil {
		t.Fatal("Send to a closed endpoint succeeded")
	}
	if err := m.Endpoint(1).Send(0, wire.Frame{}); err != nil {
		t.Fatalf("send from a closed endpoint to an open one: %v", err)
	}
	m.Endpoint(0).Close()
}

func TestMeshInvalidDestination(t *testing.T) {
	m := NewMesh(1)
	m.Endpoint(0).SetHandler(func(int, wire.Frame) {})
	defer m.Endpoint(0).Close()
	if err := m.Endpoint(0).Send(3, wire.Frame{}); err == nil {
		t.Fatal("Send to an out-of-range endpoint succeeded")
	}
}

func TestInterfaceSatisfaction(t *testing.T) {
	var _ transport.Messenger = (*Endpoint)(nil)
}
