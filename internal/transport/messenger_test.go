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
	build func(t testing.TB, n int) []transport.Messenger
}{
	{"shm", func(t testing.TB, n int) []transport.Messenger {
		m := shmchan.NewMesh(n)
		eps := make([]transport.Messenger, n)
		for i := range eps {
			eps[i] = m.Endpoint(i)
		}
		return eps
	}},
	{"tcp", func(t testing.TB, n int) []transport.Messenger {
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

// TestFrameAllocations pins what a frame costs the heap on a warmed
// pair of either mesh: nothing — the receiving inbox copies or decodes
// it into slices an earlier frame gave back, and a tcp sender encodes
// into its connection's buffer. Each operation sends one frame from
// rank 0 and waits for rank 1's handler to have seen it or, for a lock
// request, for rank 0's to have seen the grant. The limits leave one
// allocation an operation for the runtime's own doing
// (testing.AllocsPerRun counts the whole process); a mesh that clones
// a frame's slices or starts a fresh queue for each batch costs two or
// more.
func TestFrameAllocations(t *testing.T) {
	for _, mesh := range meshes {
		t.Run(mesh.name, func(t *testing.T) {
			eps := mesh.build(t, 2)
			handled := make(chan struct{}, 1)
			eps[0].SetHandler(func(int, wire.Frame) { handled <- struct{}{} })
			eps[1].SetHandler(func(_ int, f wire.Frame) {
				if f.Type != wire.TLockReq {
					handled <- struct{}{}
				} else if err := eps[1].Send(0, wire.Frame{Type: wire.TLockGrant, A: f.A}); err != nil {
					t.Error(err)
				}
			})
			defer eps[0].Close()
			defer eps[1].Close()
			beat := func(f wire.Frame) {
				if err := eps[0].Send(1, f); err != nil {
					t.Fatal(err)
				}
				<-handled
			}
			page := wire.Frame{Type: wire.TPageReply, Words: make([]int64, 1024)}
			diff := wire.Frame{Type: wire.TDiff, Offs: make([]int32, 6), Words: make([]int64, 300)}
			trip := wire.Frame{Type: wire.TLockReq, A: 3, B: 1}
			for i := 0; i < 20; i++ {
				beat(page)
				beat(diff)
				beat(trip)
			}
			for _, tc := range []struct {
				name string
				f    wire.Frame
			}{
				{"a page frame sent and handled", page},
				{"a diff frame sent and handled", diff},
				{"a small-frame round trip", trip},
			} {
				got := testing.AllocsPerRun(200, func() { beat(tc.f) })
				t.Logf("%s: %v allocations", tc.name, got)
				if got > 1 {
					t.Errorf("%s costs %v allocations, want at most 1", tc.name, got)
				}
			}
		})
	}
}

// BenchmarkRoundTrip is one small frame there and one back, a lock
// request and its grant: two sends, two dispatcher wake-ups, and on tcp
// two reader wake-ups.
func BenchmarkRoundTrip(b *testing.B) {
	for _, mesh := range meshes {
		b.Run(mesh.name, func(b *testing.B) {
			b.ReportAllocs()
			eps := mesh.build(b, 2)
			back := make(chan struct{}, 1)
			eps[0].SetHandler(func(int, wire.Frame) { back <- struct{}{} })
			eps[1].SetHandler(func(_ int, f wire.Frame) {
				if err := eps[1].Send(0, wire.Frame{Type: wire.TLockGrant, A: f.A}); err != nil {
					b.Error(err)
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eps[0].Send(1, wire.Frame{Type: wire.TLockReq, A: int64(i)}); err != nil {
					b.Fatal(err)
				}
				<-back
			}
			b.StopTimer()
			eps[1].Close()
			eps[0].Close()
		})
	}
}

// BenchmarkStream sends frames one way as fast as Send returns and
// stops the clock when the receiver has dispatched the last: full-page
// replies for bandwidth, barrier-sized frames for the per-frame cost.
func BenchmarkStream(b *testing.B) {
	for _, mesh := range meshes {
		for _, tc := range []struct {
			name string
			f    wire.Frame
		}{
			{"page", wire.Frame{Type: wire.TPageReply, Words: make([]int64, 1024)}},
			{"small", wire.Frame{Type: wire.TBarArrive, B: 1}},
		} {
			b.Run(mesh.name+"/"+tc.name, func(b *testing.B) {
				b.ReportAllocs()
				eps := mesh.build(b, 2)
				done := make(chan struct{})
				last := int64(b.N)
				eps[0].SetHandler(func(int, wire.Frame) {})
				eps[1].SetHandler(func(_ int, f wire.Frame) {
					if f.A == last {
						close(done)
					}
				})
				f := tc.f
				b.SetBytes(int64(wire.EncodedLen(f)))
				b.ResetTimer()
				for i := 1; i <= b.N; i++ {
					f.A = int64(i)
					if err := eps[0].Send(1, f); err != nil {
						b.Fatal(err)
					}
				}
				<-done
				b.StopTimer()
				eps[1].Close()
				eps[0].Close()
			})
		}
	}
}
