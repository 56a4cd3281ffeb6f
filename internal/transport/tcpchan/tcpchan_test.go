package tcpchan

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"cashmere/internal/transport/wire"
)

// dialMesh builds an n-rank loopback mesh in-process and returns the
// endpoints.
func dialMesh(t testing.TB, n int) []*Endpoint {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	eps := make([]*Endpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = Connect(i, addrs, listeners[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return eps
}

func TestMeshExchange(t *testing.T) {
	const n = 3
	eps := dialMesh(t, n)
	type delivery struct {
		from int
		f    wire.Frame
	}
	inboxes := make([]chan delivery, n)
	for i, e := range eps {
		inboxes[i] = make(chan delivery, 64)
		ch := inboxes[i]
		if e.Self() != i || e.Peers() != n {
			t.Fatalf("rank %d: Self/Peers = %d/%d", i, e.Self(), e.Peers())
		}
		e.SetHandler(func(from int, f wire.Frame) { ch <- delivery{from, f} })
	}
	// Every rank sends one frame to every rank, including itself.
	for i, e := range eps {
		for j := 0; j < n; j++ {
			if err := e.Send(j, wire.Frame{Type: TDiffFor(i, j), A: int64(100*i + j)}); err != nil {
				t.Fatalf("send %d->%d: %v", i, j, err)
			}
		}
	}
	for j := 0; j < n; j++ {
		seen := map[int]int64{}
		for k := 0; k < n; k++ {
			d := <-inboxes[j]
			seen[d.from] = d.f.A
		}
		for i := 0; i < n; i++ {
			if seen[i] != int64(100*i+j) {
				t.Errorf("rank %d received %v from rank %d, want %d", j, seen[i], i, 100*i+j)
			}
		}
	}
	for _, e := range eps {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

// TDiffFor varies the frame type per pair so a misrouted frame is
// visible in failures.
func TDiffFor(i, j int) wire.Type {
	if (i+j)%2 == 0 {
		return wire.TDiff
	}
	return wire.TWriteNotice
}

func TestPerPeerFIFO(t *testing.T) {
	const frames = 500
	eps := dialMesh(t, 2)
	seq := make(chan int64, frames)
	eps[1].SetHandler(func(from int, f wire.Frame) { seq <- f.A })
	eps[0].SetHandler(func(int, wire.Frame) {})
	for i := 0; i < frames; i++ {
		if err := eps[0].Send(1, wire.Frame{Type: wire.TDiff, A: int64(i), Words: []int64{int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		if got := <-seq; got != int64(i) {
			t.Fatalf("frame %d delivered out of order (got %d)", i, got)
		}
	}
	eps[0].Close()
	eps[1].Close()
}

// TestVersionMismatchRejected connects a raw peer speaking a future
// format version; Connect must refuse the stream.
func TestVersionMismatchRejected(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		// Rank 0 of a 2-rank mesh: accepts rank 1.
		_, err := Connect(0, []string{l.Addr().String(), "unused"}, l)
		res <- err
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := wire.Hello(1)
	bad.B = wire.Version + 1
	if err := wire.WriteFrame(c, bad); err != nil {
		t.Fatal(err)
	}
	err = <-res
	if err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("Connect returned %v, want a version-mismatch error", err)
	}
}

// TestWrongRankRejected dials claiming a rank the acceptor is not
// expecting.
func TestWrongRankRejected(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := Connect(0, []string{l.Addr().String(), "unused"}, l)
		res <- err
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := wire.WriteFrame(c, wire.Hello(0)); err != nil { // claims to be rank 0
		t.Fatal(err)
	}
	if err := <-res; err == nil {
		t.Fatal("Connect accepted a peer claiming the acceptor's own rank")
	}
}

func TestSendInvalidRank(t *testing.T) {
	eps := dialMesh(t, 2)
	defer eps[0].Close()
	defer eps[1].Close()
	eps[0].SetHandler(func(int, wire.Frame) {})
	eps[1].SetHandler(func(int, wire.Frame) {})
	if err := eps[0].Send(7, wire.Frame{}); err == nil {
		t.Fatal("Send to an out-of-mesh rank succeeded")
	}
}

// TestConcurrentSenders hammers one receiver from concurrent sender
// goroutines on both ranks of each peer stream; the write mutex must
// keep frames intact.
func TestConcurrentSenders(t *testing.T) {
	const senders, each = 4, 200
	eps := dialMesh(t, 2)
	var mu sync.Mutex
	got := map[int64]bool{}
	all := make(chan struct{})
	eps[1].SetHandler(func(from int, f wire.Frame) {
		mu.Lock()
		got[f.A] = true
		n := len(got)
		mu.Unlock()
		if n == senders*each {
			close(all)
		}
	})
	eps[0].SetHandler(func(int, wire.Frame) {})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f := wire.Frame{Type: wire.TDiff, A: int64(s*each + i), Words: []int64{1, 2, 3}}
				if err := eps[0].Send(1, f); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	<-all
	// The receiver closes first: once the sender's end of the stream is
	// gone the receiver's reader sees an EOF, which is a stream failure
	// to an endpoint that has not itself been closed yet.
	eps[1].Close()
	eps[0].Close()
	if err := eps[1].Err(); err != nil {
		t.Fatalf("receiver recorded stream failure: %v", err)
	}
}

func ExampleConnect() {
	fmt.Println("rank i dials j<i, accepts j>i")
	// Output: rank i dials j<i, accepts j>i
}
