package transport

import (
	"bufio"
	"io"
	"testing"

	"cashmere/internal/transport/wire"
)

// held returns how many slices the shelf holds of each capacity.
func (s *shelf[T]) held() map[int]int {
	m := map[int]int{}
	for c, l := range s {
		if len(l) > 0 {
			m[1<<c] = len(l)
		}
	}
	return m
}

// TestRecycledMemoryBoundedByDeepestBurst: an inbox holds, of each
// capacity, no more recycled slices than it once had queued for the
// handler. One frame as large as the wire allows leaves one slice of
// its size behind; the thousand page frames that follow never use that
// slice, and leave no more of their own than the one burst that piled
// up behind a stalled handler was deep — one at a time needs two. It
// runs once per way in: Put (shm's Send, a tcp self-send) and Receive
// (a tcp peer's stream).
func TestRecycledMemoryBoundedByDeepestBurst(t *testing.T) {
	for _, way := range []string{"Put", "Receive"} {
		t.Run(way, func(t *testing.T) { testDeepestBurst(t, way == "Receive") })
	}
}

func testDeepestBurst(t *testing.T, stream bool) {
	const burst, pageWords = 8, 1024
	in := NewInbox()
	handled := make(chan struct{}, 1+burst) // the stalled frame and the burst behind it
	stall := make(chan struct{})
	in.SetHandler(func(_ int, f wire.Frame) {
		if f.Type == wire.TFlagSet {
			<-stall
		}
		handled <- struct{}{}
	})
	put := func(f wire.Frame) {
		t.Helper()
		if err := in.Put(0, f); err != nil {
			t.Fatal(err)
		}
	}
	var w *io.PipeWriter
	received := make(chan struct{})
	if stream {
		var r *io.PipeReader
		r, w = io.Pipe()
		go func() {
			in.Receive(0, bufio.NewReader(r))
			close(received)
		}()
		put = func(f wire.Frame) {
			t.Helper()
			if err := wire.WriteFrame(w, f); err != nil {
				t.Fatal(err)
			}
		}
	}

	header := wire.EncodedLen(wire.Frame{}) - 4
	largest := wire.Frame{Type: wire.TDiff, Words: make([]int64, (wire.MaxFrameBytes-header)/8)}
	put(largest)
	<-handled

	page := wire.Frame{Type: wire.TPageReply, Words: make([]int64, pageWords)}
	put(wire.Frame{Type: wire.TFlagSet})
	for i := 0; i < burst; i++ {
		put(page)
	}
	close(stall)
	for i := 0; i < 1+burst; i++ {
		<-handled
	}
	for i := burst; i < 1000; i++ {
		put(page)
		<-handled
	}
	in.Close()
	if stream {
		w.Close() // the stream ends after Close: no failure
		<-received
		if err := in.Err(); err != nil {
			t.Errorf("Err after Close and end of stream: %v", err)
		}
	}

	words := in.pool.i64.held()
	if n := words[pageWords]; n < 1 || n > burst {
		t.Errorf("%d page-sized slices held after a deepest burst of %d", n, burst)
	}
	delete(words, pageWords)
	if ceil := 1 << 19; len(words) != 1 || words[ceil] != 1 {
		t.Errorf("besides pages, slices held by capacity: %v; want the one of %d words the largest frame took", words, ceil)
	}
	if lists := in.pool.i32.held(); len(lists) != 0 {
		t.Errorf("int32 slices held by capacity: %v; no frame carried any", lists)
	}
}
