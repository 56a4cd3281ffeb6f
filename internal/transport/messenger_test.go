package transport_test

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cashmere/internal/transport"
	"cashmere/internal/transport/shmchan"
	"cashmere/internal/transport/tcpchan"
	"cashmere/internal/transport/wire"
)

// meshes are the Messenger backends, each built as an n-endpoint mesh
// inside the test process.
var meshes = []struct {
	name  string
	build func(t *testing.T, n int) []transport.Messenger
}{
	{"shm", func(t *testing.T, n int) []transport.Messenger {
		m := shmchan.NewMesh(n)
		eps := make([]transport.Messenger, n)
		for i := range eps {
			eps[i] = m.Endpoint(i)
		}
		return eps
	}},
	{"tcp", func(t *testing.T, n int) []transport.Messenger {
		listeners := make([]net.Listener, n)
		addrs := make([]string, n)
		for i := range listeners {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			listeners[i], addrs[i] = l, l.Addr().String()
		}
		eps := make([]transport.Messenger, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eps[i], errs[i] = tcpchan.Connect(i, addrs, listeners[i])
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", i, err)
			}
		}
		return eps
	}},
}

// stamped fills a frame's three slices from its sequence number, so a
// receiver can tell from f.A alone what every element must be.
func stamped(f *wire.Frame, seq int64) {
	f.A = seq
	for i := range f.Pages {
		f.Pages[i] = int32(seq) + int32(i)
	}
	for i := range f.Offs {
		f.Offs[i] = int32(seq) - int32(i)
	}
	for i := range f.Words {
		f.Words[i] = seq<<20 | int64(i)
	}
}

// intact reports whether f still holds what stamped put there.
func intact(f wire.Frame) bool {
	for i, v := range f.Pages {
		if v != int32(f.A)+int32(i) {
			return false
		}
	}
	for i, v := range f.Offs {
		if v != int32(f.A)-int32(i) {
			return false
		}
	}
	for i, v := range f.Words {
		if v != f.A<<20|int64(i) {
			return false
		}
	}
	return true
}

// TestMessengerContract pins what transport.Messenger guarantees, on
// every backend: rank 0 of a three-rank mesh takes a stream of frames
// from each rank, itself included, all sent at once. Each sender builds
// every frame in the same three slices and overwrites them the moment
// Send returns (Send borrows); the handler finds each frame as it was
// sent, before and after yielding the processor to the senders and the
// transport's readers (the handler borrows: nothing it was handed is
// reused while it runs); no two handler calls overlap; and each
// sender's frames, rank 0's to itself among them, arrive in send order.
// Every fifth frame carries its three slices empty but not nil, as a
// scratch reset for a frame with nothing to list is: Send borrows those
// too, so a backend must neither deliver them nor keep them.
func TestMessengerContract(t *testing.T) {
	const ranks, frames = 3, 300
	for _, mesh := range meshes {
		t.Run(mesh.name, func(t *testing.T) {
			eps := mesh.build(t, ranks)
			var (
				inHandler atomic.Int32
				next      [ranks]int64 // the sequence number due from each sender
				left      = ranks * frames
				done      = make(chan struct{})
			)
			eps[0].SetHandler(func(from int, f wire.Frame) {
				if inHandler.Add(1) != 1 {
					t.Error("two handler calls overlap")
				}
				defer inHandler.Add(-1)
				if f.A != next[from] {
					t.Errorf("rank %d's frame %d handled when %d was due", from, f.A, next[from])
				}
				next[from] = f.A + 1
				pages, offs, words := 3, 4, 300+int(f.A)%2*724
				if f.A%5 == 0 {
					pages, offs, words = 0, 0, 0
				}
				if len(f.Pages) != pages || len(f.Offs) != offs || len(f.Words) != words || !intact(f) {
					t.Errorf("rank %d's frame %d differs from what was sent", from, f.A)
				}
				for i := 0; i < 3; i++ {
					runtime.Gosched()
				}
				if !intact(f) {
					t.Errorf("rank %d's frame %d changed while its handler ran", from, f.A)
				}
				if left--; left == 0 {
					close(done)
				}
			})
			for _, e := range eps[1:] {
				e.SetHandler(func(int, wire.Frame) {})
			}

			var wg sync.WaitGroup
			for _, e := range eps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// A diff-sized and a page-sized payload alternate in one
					// scratch, as they do out of mprun's.
					pages, offs, words := make([]int32, 3), make([]int32, 4), make([]int64, 1024)
					for seq := int64(0); seq < frames; seq++ {
						f := wire.Frame{Type: wire.TDiff, Pages: pages, Offs: offs, Words: words[:300+int(seq)%2*724]}
						if seq%5 == 0 {
							f.Pages, f.Offs, f.Words = pages[:0], offs[:0], words[:0]
						}
						stamped(&f, seq)
						if err := e.Send(0, f); err != nil {
							t.Error(err)
							return
						}
						stamped(&wire.Frame{Pages: pages, Offs: offs, Words: words}, -1)
					}
				}()
			}
			wg.Wait()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the handler has not seen every frame sent")
			}
			// The receiver first: a peer's end of a stream going away is a
			// stream failure to a tcp endpoint not yet closed itself.
			for _, e := range eps {
				if err := e.Close(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
