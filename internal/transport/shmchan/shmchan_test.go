package shmchan

import (
	"fmt"
	"sync"
	"testing"

	"cashmere/internal/costs"
	"cashmere/internal/transport"
	"cashmere/internal/transport/wire"
)

func TestRingFIFO(t *testing.T) {
	q := newRing()
	for i := 0; i < ringSize; i++ {
		if !q.push(frame{off: i}) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if q.push(frame{off: ringSize}) {
		t.Fatal("push succeeded on a full ring")
	}
	for i := 0; i < ringSize; i++ {
		f, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d failed on non-empty ring", i)
		}
		if f.off != i {
			t.Fatalf("pop %d returned off %d; ring is not FIFO", i, f.off)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded on an empty ring")
	}
}

func TestRingWraparound(t *testing.T) {
	q := newRing()
	next := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < ringSize/2+1; i++ {
			if !q.push(frame{off: next + i}) {
				t.Fatalf("round %d: push %d failed", round, i)
			}
		}
		for i := 0; i < ringSize/2+1; i++ {
			f, ok := q.pop()
			if !ok || f.off != next+i {
				t.Fatalf("round %d: pop got (%d,%v), want (%d,true)", round, f.off, ok, next+i)
			}
		}
		next += ringSize/2 + 1
	}
}

// TestRingConcurrentProducers drives the multi-producer path under the
// race detector: the consumer must see every frame exactly once, and
// each producer's frames in issue order.
func TestRingConcurrentProducers(t *testing.T) {
	const producers, perProducer = 4, 2000
	q := newRing()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !q.push(frame{src: p, off: i}) {
					// Ring full: wait for the consumer.
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := make([]int, producers)
		seen := 0
		for seen < producers*perProducer {
			f, ok := q.pop()
			if !ok {
				continue
			}
			if f.off != next[f.src] {
				t.Errorf("producer %d: frame %d arrived, want %d (per-source order broken)", f.src, f.off, next[f.src])
				return
			}
			next[f.src]++
			seen++
		}
	}()
	wg.Wait()
	<-done
}

func TestDrainOnReadVisibility(t *testing.T) {
	n := New(3, costs.Default())
	r := n.NewRegion(4, false)
	// A write from node 0 is not yet applied at node 1 until it reads.
	if got := r.Write(0, 2, 42, 100); got != 100 {
		t.Fatalf("Write returned %d, want the caller's clock 100", got)
	}
	if got := r.Read(1, 2); got != 42 {
		t.Fatalf("node 1 read %d after drain, want 42", got)
	}
	if got := r.Read(2, 2); got != 42 {
		t.Fatalf("node 2 read %d after drain, want 42", got)
	}
	// Without loop-back the writer's own copy stays stale.
	if got := r.Read(0, 2); got != 0 {
		t.Fatalf("writer's copy shows %d without loop-back, want 0", got)
	}
}

func TestLoopback(t *testing.T) {
	n := New(2, costs.Default())
	r := n.NewRegion(2, true)
	r.Write(0, 1, 7, 0)
	if got := r.Read(0, 1); got != 7 {
		t.Fatalf("loop-back read %d, want 7", got)
	}
}

func TestWriteBlockAndBytesMoved(t *testing.T) {
	n := New(2, costs.Default())
	r := n.NewRegion(8, true)
	vals := []int64{1, 2, 3, 4}
	r.WriteBlock(0, 2, vals, 0)
	for i, want := range vals {
		if got := r.Read(1, 2+i); got != want {
			t.Fatalf("word %d = %d, want %d", 2+i, got, want)
		}
		if got := r.Read(0, 2+i); got != want {
			t.Fatalf("loop-back word %d = %d, want %d", 2+i, got, want)
		}
	}
	want := int64(len(vals)) * transport.WordBytes
	if got := n.BytesMoved(); got != want {
		t.Fatalf("BytesMoved = %d, want %d", got, want)
	}
	n.Transfer(0, 100, 5)
	if got := n.BytesMoved(); got != want+100 {
		t.Fatalf("BytesMoved after Transfer = %d, want %d", got, want+100)
	}
}

func TestPerSourceOrder(t *testing.T) {
	n := New(2, costs.Default())
	r := n.NewRegion(1, false)
	// Two writes from the same source to the same word: the later one
	// must win at the receiver.
	r.Write(0, 0, 1, 0)
	r.Write(0, 0, 2, 0)
	if got := r.Read(1, 0); got != 2 {
		t.Fatalf("read %d after two same-source writes, want the later value 2", got)
	}
}

// TestFullRingFallback forces the (0,1) ring full while node 1 never
// reads; the producer must drain node 1 itself and complete.
func TestFullRingFallback(t *testing.T) {
	n := New(2, costs.Default())
	r := n.NewRegion(1, false)
	for i := 0; i < 4*ringSize; i++ {
		r.Write(0, 0, int64(i), 0)
	}
	if got := r.Read(1, 0); got != 4*ringSize-1 {
		t.Fatalf("read %d, want %d (frames lost under full-ring fallback)", got, 4*ringSize-1)
	}
}

func TestRegionAtReceivers(t *testing.T) {
	n := New(3, costs.Default())
	r := n.NewRegionAt(2, true, 0, 2)
	if !r.Receives(0) || r.Receives(1) || !r.Receives(2) {
		t.Fatalf("receive map wrong: got %v %v %v, want true false true",
			r.Receives(0), r.Receives(1), r.Receives(2))
	}
	r.Write(0, 0, 9, 0)
	if got := r.Read(2, 0); got != 9 {
		t.Fatalf("receiver 2 read %d, want 9", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Read on a non-receiving node did not panic")
		}
	}()
	r.Read(1, 0)
}

func TestPoke(t *testing.T) {
	n := New(2, costs.Default())
	r := n.NewRegion(1, false)
	r.Poke(1, 0, 5)
	if got := r.Read(1, 0); got != 5 {
		t.Fatalf("read %d after Poke, want 5", got)
	}
	if got := r.Read(0, 0); got != 0 {
		t.Fatalf("Poke leaked to another node: read %d, want 0", got)
	}
}

func TestFabricContract(t *testing.T) {
	n := New(2, costs.Default())
	if n.Kind() != transport.SHM {
		t.Fatalf("Kind = %v, want SHM", n.Kind())
	}
	if n.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", n.Nodes())
	}
	if n.LinkBusyNS(0) != 0 {
		t.Fatal("LinkBusyNS must be 0 on the uncontended fabric")
	}
	if _, ok := n.HubBusyNS(); ok {
		t.Fatal("HubBusyNS must report no hub")
	}
	if got := n.Transfer(1, 64, 17); got != 17 {
		t.Fatalf("Transfer returned %d, want the caller's clock 17", got)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := n.NewRegion(1, false)
	if r.Fabric() != transport.Fabric(n) {
		t.Fatal("Region.Fabric does not return its network")
	}
}

// TestConcurrentWritersReaders stresses the region path under -race:
// every node writes its own word while every node reads all words.
func TestConcurrentWritersReaders(t *testing.T) {
	const nodes, iters = 4, 500
	n := New(nodes, costs.Default())
	r := n.NewRegion(nodes, true)
	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for i := 1; i <= iters; i++ {
				r.Write(node, node, int64(i), 0)
				for w := 0; w < nodes; w++ {
					if v := r.Read(node, w); v < 0 || v > iters {
						t.Errorf("node %d read impossible value %d", node, v)
						return
					}
				}
			}
		}(node)
	}
	wg.Wait()
	for w := 0; w < nodes; w++ {
		for node := 0; node < nodes; node++ {
			if got := r.Read(node, w); got != iters {
				t.Fatalf("node %d sees word %d = %d after quiescence, want %d", node, w, got, iters)
			}
		}
	}
}

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
	var _ transport.Fabric = (*Network)(nil)
	var _ transport.Region = (*Region)(nil)
	var _ transport.Messenger = (*Endpoint)(nil)
}

// BenchmarkRoundTrip is one small frame there and one back, a lock
// request and its grant: two sends, two dispatcher wake-ups. It mirrors
// tcpchan's benchmark of the same name.
func BenchmarkRoundTrip(b *testing.B) {
	b.ReportAllocs()
	m := NewMesh(2)
	back := make(chan struct{}, 1)
	m.Endpoint(0).SetHandler(func(int, wire.Frame) { back <- struct{}{} })
	m.Endpoint(1).SetHandler(func(_ int, f wire.Frame) {
		if err := m.Endpoint(1).Send(0, wire.Frame{Type: wire.TLockGrant, A: f.A}); err != nil {
			b.Error(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Endpoint(0).Send(1, wire.Frame{Type: wire.TLockReq, A: int64(i)}); err != nil {
			b.Fatal(err)
		}
		<-back
	}
	b.StopTimer()
	m.Endpoint(1).Close()
	m.Endpoint(0).Close()
}

// BenchmarkStream sends frames one way as fast as Send returns and stops
// the clock when the receiver has dispatched the last, as tcpchan's
// does. A page frame costs the copy Send makes of its words; a small
// frame, the queue and the wake-up.
func BenchmarkStream(b *testing.B) {
	const pageWords = 1024
	for _, tc := range []struct {
		name string
		f    wire.Frame
	}{
		{"page", wire.Frame{Type: wire.TPageReply, Words: make([]int64, pageWords)}},
		{"small", wire.Frame{Type: wire.TBarArrive, B: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			m := NewMesh(2)
			done := make(chan struct{})
			last := int64(b.N)
			m.Endpoint(0).SetHandler(func(int, wire.Frame) {})
			m.Endpoint(1).SetHandler(func(_ int, f wire.Frame) {
				if f.A == last {
					close(done)
				}
			})
			f := tc.f
			b.SetBytes(int64(wire.EncodedLen(f)))
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				f.A = int64(i)
				if err := m.Endpoint(0).Send(1, f); err != nil {
					b.Fatal(err)
				}
			}
			<-done
			b.StopTimer()
			m.Endpoint(1).Close()
			m.Endpoint(0).Close()
		})
	}
}

func ExampleNetwork() {
	n := New(2, costs.Default())
	r := n.NewRegion(1, true)
	r.Write(0, 0, 41, 0)
	fmt.Println(r.Read(1, 0))
	// Output: 41
}
