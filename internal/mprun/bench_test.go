package mprun

import (
	"sync"
	"sync/atomic"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/costs"
	"cashmere/internal/transport/shmchan"
)

// Microbenchmarks for the access and release path on a one-node mesh:
// the node is its own home, so fetches and flushes go through the real
// handler over the shm dispatcher, with no peer to wait for. Every
// benchmark touches pages that are cached before the timer starts
// unless its name says it measures a flush.

const benchPages = 4

// benchNode builds a running one-node, two-processor runtime and
// returns its processors.
func benchNode(b *testing.B) (*node, [2]*proc) {
	ep := shmchan.NewMesh(1).Endpoint(0)
	b.Cleanup(func() { ep.Close() })
	cfg := Config{Rank: 0, Nodes: 1, PPN: 2, Model: costs.Default()}
	n := newNode(cfg, ep, apps.Shape{SharedWords: benchPages * apps.PageWords})
	ep.SetHandler(n.handle)
	procs := [2]*proc{n.newProc(0), n.newProc(1)}
	for _, p := range procs {
		for pg := 0; pg < benchPages; pg++ {
			p.Load(pg * apps.PageWords)
		}
	}
	return n, procs
}

var (
	sinkWord int64
	sinkRow  = make([]float64, apps.PageWords)
)

func BenchmarkLoad(b *testing.B) {
	_, procs := benchNode(b)
	p := procs[0]
	b.ResetTimer()
	var s int64
	for i := 0; i < b.N; i++ {
		s += p.Load(i & (apps.PageWords - 1))
	}
	sinkWord = s
}

// BenchmarkLoadPPN2 is BenchmarkLoad while the node's other processor
// loads from the same page as fast as it can: what the two share on a
// read hit is one read-only cache line.
func BenchmarkLoadPPN2(b *testing.B) {
	_, procs := benchNode(b)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var s int64
		for i := 0; !stop.Load(); i++ {
			s += procs[1].Load(i & (apps.PageWords - 1))
		}
		atomic.AddInt64(&sinkWord, s)
	}()
	p := procs[0]
	b.ResetTimer()
	var s int64
	for i := 0; i < b.N; i++ {
		s += p.Load(i & (apps.PageWords - 1))
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	atomic.AddInt64(&sinkWord, s)
}

func BenchmarkStore(b *testing.B) {
	_, procs := benchNode(b)
	p := procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Store(i&(apps.PageWords-1), int64(i))
	}
}

func BenchmarkLoadFRow(b *testing.B) {
	_, procs := benchNode(b)
	p := procs[0]
	b.SetBytes(apps.PageWords * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.LoadFRow(sinkRow, (i&(benchPages-1))*apps.PageWords)
	}
}

func BenchmarkStoreFRow(b *testing.B) {
	_, procs := benchNode(b)
	p := procs[0]
	row := make([]float64, apps.PageWords)
	b.SetBytes(apps.PageWords * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[0] = float64(i)
		p.StoreFRow((i&(benchPages-1))*apps.PageWords, row)
	}
}

// BenchmarkFlushDirtyPage is one release of one dirty page, end to end:
// the stores that dirty it (8 spread words, or a whole row), the twin
// scan and run encoding, the diff's trip through the home and its ack,
// and the refetch the next iteration's first store pays because a
// flush invalidates the flusher's copy.
func BenchmarkFlushDirtyPage(b *testing.B) {
	b.Run("sparse", func(b *testing.B) {
		n, procs := benchNode(b)
		p := procs[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := 0; w < apps.PageWords; w += apps.PageWords / 8 {
				p.Store(w, int64(i+1))
			}
			n.flush(0)
		}
	})
	b.Run("dense", func(b *testing.B) {
		n, procs := benchNode(b)
		p := procs[0]
		row := make([]float64, apps.PageWords)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := range row {
				row[w] = float64(i + w + 1)
			}
			p.StoreFRow(0, row)
			n.flush(0)
		}
	})
}
