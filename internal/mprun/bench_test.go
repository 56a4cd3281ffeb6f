package mprun

import (
	"sync"
	"sync/atomic"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/costs"
	"cashmere/internal/transport/shmchan"
)

// Microbenchmarks for the access and release path of rank 0 on a
// two-rank shm mesh whose rank 1 is a home and nothing else: a handler
// with no processors. Odd pages are homed there, so rank 0 caches,
// twins and diffs them, and its fetches and flushes cross the mesh and
// the real handler; even pages are homed on rank 0 itself, which works
// on them in place. Benchmarks without Home in their name touch the
// cached pages, which are valid before the timer starts.

const benchPages = 4 // of each kind

// cachedAddr and homeAddr are the addresses of word off of rank 0's
// pg-th cached and pg-th homed page.
func cachedAddr(pg, off int) int { return (2*pg+1)*apps.PageWords + off }
func homeAddr(pg, off int) int   { return 2*pg*apps.PageWords + off }

// benchNode builds the mesh and returns rank 0's two processors.
func benchNode(b *testing.B) [2]*proc {
	mesh := shmchan.NewMesh(2)
	shape := apps.Shape{SharedWords: 2 * benchPages * apps.PageWords}
	var nodes [2]*node
	for r := range nodes {
		ep := mesh.Endpoint(r)
		b.Cleanup(func() { ep.Close() })
		cfg := Config{Rank: r, Nodes: 2, PPN: 2, Model: costs.Default()}
		nodes[r] = newNode(cfg, ep, shape)
		ep.SetHandler(nodes[r].handle)
	}
	n := nodes[0]
	procs := [2]*proc{n.newProc(0), n.newProc(1)}
	for _, p := range procs {
		for pg := 0; pg < benchPages; pg++ {
			p.Load(cachedAddr(pg, 0))
		}
	}
	return procs
}

var (
	sinkWord int64
	sinkRow  = make([]float64, apps.PageWords)
)

func BenchmarkLoad(b *testing.B) {
	procs := benchNode(b)
	p := procs[0]
	b.ResetTimer()
	var s int64
	for i := 0; i < b.N; i++ {
		s += p.Load(cachedAddr(0, i&(apps.PageWords-1)))
	}
	sinkWord = s
}

// BenchmarkLoadPPN2 is BenchmarkLoad while the node's other processor
// loads from the same page as fast as it can: what the two share on a
// read hit is one read-only cache line.
func BenchmarkLoadPPN2(b *testing.B) {
	procs := benchNode(b)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var s int64
		for i := 0; !stop.Load(); i++ {
			s += procs[1].Load(cachedAddr(0, i&(apps.PageWords-1)))
		}
		atomic.AddInt64(&sinkWord, s)
	}()
	p := procs[0]
	b.ResetTimer()
	var s int64
	for i := 0; i < b.N; i++ {
		s += p.Load(cachedAddr(0, i&(apps.PageWords-1)))
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	atomic.AddInt64(&sinkWord, s)
}

// BenchmarkLoadAlternatingPages loads from two pages in turn, which a
// one-entry TLB would miss on every time.
func BenchmarkLoadAlternatingPages(b *testing.B) {
	p := benchNode(b)[0]
	b.ResetTimer()
	var s int64
	for i := 0; i < b.N; i++ {
		s += p.Load(cachedAddr(i&1, i&(apps.PageWords-1)))
	}
	sinkWord = s
}

func BenchmarkStore(b *testing.B) {
	procs := benchNode(b)
	p := procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Store(cachedAddr(0, i&(apps.PageWords-1)), int64(i))
	}
}

// BenchmarkStorePPN2 is BenchmarkStore while the node's other processor
// stores to the other half of the same page as fast as it can: what the
// two share on a store hit is the read-only line of the epoch.
func BenchmarkStorePPN2(b *testing.B) {
	procs := benchNode(b)
	const half = apps.PageWords / 2
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			procs[1].Store(cachedAddr(0, half+(i&(half-1))), int64(i))
		}
	}()
	p := procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Store(cachedAddr(0, i&(half-1)), int64(i))
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}

// BenchmarkHomeStore is BenchmarkStore on a page the node homes: the
// same hit, on the master copy.
func BenchmarkHomeStore(b *testing.B) {
	procs := benchNode(b)
	p := procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Store(homeAddr(0, i&(apps.PageWords-1)), int64(i))
	}
}

func BenchmarkLoadFRow(b *testing.B) {
	procs := benchNode(b)
	p := procs[0]
	b.SetBytes(apps.PageWords * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.LoadFRow(sinkRow, cachedAddr(i&(benchPages-1), 0))
	}
}

func BenchmarkStoreFRow(b *testing.B) {
	procs := benchNode(b)
	p := procs[0]
	row := make([]float64, apps.PageWords)
	b.SetBytes(apps.PageWords * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[0] = float64(i)
		p.StoreFRow(cachedAddr(i&(benchPages-1), 0), row)
	}
}

// BenchmarkFlushDirtyPage is one release of one dirty cached page, end
// to end: the stores that dirty it (8 spread words, or a whole row),
// the twin scan and run encoding, and the diff's trip to the home and
// its ack. The copy stays valid, so the next iteration's first store
// pays a twin, not a refetch.
func BenchmarkFlushDirtyPage(b *testing.B) {
	b.Run("sparse", func(b *testing.B) {
		procs := benchNode(b)
		p := procs[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := 0; w < apps.PageWords; w += apps.PageWords / 8 {
				p.Store(cachedAddr(0, w), int64(i+1))
			}
			p.flush()
		}
	})
	b.Run("dense", func(b *testing.B) {
		procs := benchNode(b)
		p := procs[0]
		row := make([]float64, apps.PageWords)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := range row {
				row[w] = float64(i + w + 1)
			}
			p.StoreFRow(cachedAddr(0, 0), row)
			p.flush()
		}
	})
}

// benchUpdate is the cycle a lock-protected update of one word runs:
// read it, store it back changed, release.
func benchUpdate(b *testing.B, addr int) {
	procs := benchNode(b)
	p := procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Store(addr, p.Load(addr)+1)
		p.flush()
	}
}

// BenchmarkFlushKeptCopy updates a word of a cached page. The release
// leaves the copy valid, so the cycle is one diff round trip and no
// page moves.
func BenchmarkFlushKeptCopy(b *testing.B) { benchUpdate(b, cachedAddr(0, 5)) }

// BenchmarkHomeFlushNoSharers updates a word of a page the node homes
// and nobody else has fetched: a store to the master and a release that
// sends no frame.
func BenchmarkHomeFlushNoSharers(b *testing.B) { benchUpdate(b, homeAddr(0, 5)) }
