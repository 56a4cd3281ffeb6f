package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/costs"
	"cashmere/internal/diff"
	"cashmere/internal/directory"
	"cashmere/internal/transport/simchan"
	"cashmere/internal/transport/wire"
	"cashmere/internal/vm"
	"cashmere/internal/wnotice"
)

// Isolation probes: short loops over one layer's public entry points,
// run in the workload whose layer they belong to, after its traced
// repetitions. A probe's number says what an operation costs with
// nothing else going on; the workload's own per-layer numbers say what
// it costs in the mix.

// probeDiv divides every probe's iteration count and the host-speed
// reference's sizes; the tests raise it so both run in milliseconds
// under the race detector.
var probeDiv = 1

// nsPerOp times loop(n), a loop of n operations, five times after a
// short warm-up and returns the median ns per operation.
func nsPerOp(n int, loop func(n int)) float64 {
	n = max(n/probeDiv, 1)
	loop(n/10 + 1)
	runs := make([]float64, 5)
	for i := range runs {
		t0 := time.Now()
		loop(n)
		runs[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(runs)
}

var sink atomic.Int64 // keeps probe results alive

// probeApp measures the multi-process runtime's warm access path from
// inside a Body: the page is cached, so a load or store is the node
// mutex, the page-map lookup and, for stores, the dirty-map insert.
type probeApp struct {
	measuring int // processors 0..measuring-1 measure, the rest park at the barrier

	mu                sync.Mutex
	load, store, rowW []float64 // ns per word, one entry per measuring processor
}

func (a *probeApp) Name() string              { return "Probe" }
func (a *probeApp) DataSet() string           { return "one page per processor" }
func (a *probeApp) SeqTime(costs.Model) int64 { return 0 }
func (a *probeApp) Verify(apps.Memory) error  { return nil }
func (a *probeApp) Shape() apps.Shape         { return apps.Shape{SharedWords: 2 * apps.PageWords} }

func (a *probeApp) Body(p apps.Proc) {
	const mask = apps.PageWords - 1
	base := p.ID() * apps.PageWords
	p.Store(base, 1)
	p.Barrier()
	if p.ID() < a.measuring {
		load := nsPerOp(200_000, func(n int) {
			var s int64
			for i := 0; i < n; i++ {
				s += p.Load(base + i&mask)
			}
			sink.Store(s)
		})
		store := nsPerOp(200_000, func(n int) {
			for i := 0; i < n; i++ {
				p.Store(base+i&mask, int64(i))
			}
		})
		row := make([]float64, apps.PageWords)
		rowW := nsPerOp(400, func(n int) {
			for i := 0; i < n; i++ {
				p.LoadFRow(row, base)
			}
		}) / apps.PageWords
		a.mu.Lock()
		a.load = append(a.load, load)
		a.store = append(a.store, store)
		a.rowW = append(a.rowW, rowW)
		a.mu.Unlock()
	}
	p.Barrier()
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}

// mprunProbes: one processor alone on a 2x1 mesh, then two processors
// of one node at once (1x2), which adds the contention on the node
// mutex every access takes.
func mprunProbes(out map[string]float64) error {
	alone := &probeApp{measuring: 1}
	if _, err := runMP(shm, 2, 1, func(r int) apps.App {
		if r == 0 {
			return alone
		}
		return &probeApp{}
	}, false); err != nil {
		return fmt.Errorf("mprun probe 2x1: %w", err)
	}
	out["mprun.warm_load_ns"] = mean(alone.load)
	out["mprun.warm_store_ns"] = mean(alone.store)
	out["mprun.warm_row_ns_per_word"] = mean(alone.rowW)

	pair := &probeApp{measuring: 2}
	if _, err := runMP(shm, 1, 2, func(int) apps.App { return pair }, false); err != nil {
		return fmt.Errorf("mprun probe 1x2: %w", err)
	}
	out["mprun.warm_load_ns_ppn2"] = mean(pair.load)
	return nil
}

// fabricProbes measures a backend's small-frame round trip and its
// page-sized streaming rate between two endpoints, with no protocol on
// top. prefix is the backend's metric prefix.
func fabricProbes(fab fabric, prefix string, out map[string]float64) error {
	trips, stream := max(3000/probeDiv, 10), max(3000/probeDiv, 10)
	eps, err := newMesh(fab, 2)
	if err != nil {
		return err
	}
	defer closeMesh(eps)
	back := make(chan error, 1) // one reply is outstanding at a time
	eps[0].SetHandler(func(int, wire.Frame) { back <- nil })
	eps[1].SetHandler(func(_ int, f wire.Frame) {
		var err error
		switch {
		case f.Type == wire.TLockReq:
			err = eps[1].Send(0, wire.Frame{Type: wire.TLockGrant, A: f.A})
		case f.Type == wire.TPageReply && f.A == int64(stream-1):
			err = eps[1].Send(0, wire.Frame{Type: wire.TFlushAck})
		}
		if err != nil {
			back <- err // no reply is coming; unblock the prober with the cause
		}
	})

	rt := make([]int64, 0, trips)
	for i := 0; i < trips+trips/10; i++ {
		t0 := time.Now()
		if err := eps[0].Send(1, wire.Frame{Type: wire.TLockReq, A: int64(i)}); err != nil {
			return err
		}
		if err := <-back; err != nil {
			return err
		}
		if i >= trips/10 { // the first tenth warms the path
			rt = append(rt, int64(time.Since(t0)))
		}
	}
	sort.Slice(rt, func(i, j int) bool { return rt[i] < rt[j] })
	out[prefix+".rt_us_p50"] = quantileSorted(rt, 0.50) / 1e3
	out[prefix+".rt_us_p99"] = quantileSorted(rt, 0.99) / 1e3

	page := wire.Frame{Type: wire.TPageReply, Words: make([]int64, apps.PageWords)}
	t0 := time.Now()
	for i := 0; i < stream; i++ {
		page.A = int64(i)
		if err := eps[0].Send(1, page); err != nil {
			return err
		}
	}
	if err := <-back; err != nil {
		return err
	}
	bytes := float64(stream * wire.EncodedLen(page))
	out[prefix+".stream_mb_s"] = bytes / mb / time.Since(t0).Seconds()
	return nil
}

// coreProbes measures the simulator's warm access path, the host cost
// of a read fault, and the helper layers under the engine.
func coreProbes(out map[string]float64) error {
	const words = 64 * apps.PageWords
	twoNodes := func() (*core.Cluster, error) {
		return core.New(core.Config{Nodes: 2, ProcsPerNode: 1, Protocol: core.TwoLevel, SharedWords: words})
	}

	// Warm paths: processor 0 maps every page read-write, then loops
	// while processor 1 waits at the barrier.
	c, err := twoNodes()
	if err != nil {
		return err
	}
	c.Run(func(p *core.Proc) {
		if p.ID() == 0 {
			const mask = words - 1
			for a := 0; a < words; a += apps.PageWords {
				p.Store(a, 1)
			}
			out["core.warm_load_ns"] = nsPerOp(2_000_000, func(n int) {
				var s int64
				for i := 0; i < n; i++ {
					s += p.Load(i & mask)
				}
				sink.Store(s)
			})
			out["core.warm_store_ns"] = nsPerOp(2_000_000, func(n int) {
				for i := 0; i < n; i++ {
					p.Store(i&mask, int64(i))
				}
			})
			row := make([]float64, apps.PageWords)
			out["core.warm_row_ns_per_word"] = nsPerOp(20_000, func(n int) {
				for i := 0; i < n; i++ {
					p.LoadFRow(row, (i&63)*apps.PageWords)
				}
			}) / apps.PageWords
		}
		p.Barrier()
	})

	// Read faults: processor 1 writes a word of every page, processor 0
	// then first-touches each one. A cluster runs once, so each sample
	// is a fresh one.
	const faultPages = 48
	faults := make([]float64, 5)
	for i := range faults {
		c, err := twoNodes()
		if err != nil {
			return err
		}
		c.Run(func(p *core.Proc) {
			if p.ID() == 1 {
				for pg := 0; pg < faultPages; pg++ {
					p.Store(pg*apps.PageWords, int64(pg))
				}
			}
			p.Barrier()
			if p.ID() == 0 {
				t0 := time.Now()
				var s int64
				for pg := 0; pg < faultPages; pg++ {
					s += p.Load(pg * apps.PageWords)
				}
				faults[i] = float64(time.Since(t0)) / faultPages / 1e3
				sink.Store(s)
			}
			p.Barrier()
		})
	}
	out["core.fault_host_us"] = median(faults)

	// diff, on one 1024-word page.
	page := make([]int64, apps.PageWords)
	home := make([]int64, apps.PageWords)
	twin := diff.Twin(page)
	out["diff.twin_ns"] = nsPerOp(20_000, func(n int) {
		var s int64
		for i := 0; i < n; i++ {
			s += int64(len(diff.Twin(page)))
		}
		sink.Store(s)
	})
	for w := 0; w < 8; w++ {
		page[w*128] = 1
	}
	out["diff.outgoing_sparse_ns"] = nsPerOp(20_000, func(n int) {
		var s int64
		for i := 0; i < n; i++ {
			s += int64(diff.Outgoing(page, twin, home))
		}
		sink.Store(s)
	})
	// Incoming folds what it applies into the twin, so alternate two
	// master copies that differ in 8 words: every call applies 8.
	other := diff.Twin(twin)
	out["diff.incoming_ns"] = nsPerOp(20_000, func(n int) {
		working := diff.Twin(twin)
		for i := 0; i < n; i++ {
			in := page
			if i&1 == 1 {
				in = other
			}
			sink.Add(int64(diff.Incoming(working, twin, in)))
		}
	})
	for w := range page {
		page[w] = int64(w + 1)
	}
	twin = make([]int64, apps.PageWords)
	out["diff.outgoing_dense_ns"] = nsPerOp(20_000, func(n int) {
		var s int64
		for i := 0; i < n; i++ {
			s += int64(diff.Outgoing(page, twin, home))
		}
		sink.Store(s)
	})

	// vm: one mprotect, and the second-level directory's loosest-
	// permission scan over a 4-processor node that finds no writer.
	table := vm.NewTable(64)
	out["vm.set_ns"] = nsPerOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			table.Set(i&63, directory.ReadOnly)
		}
	})
	node := vm.NewNode(simPPN, 64)
	for i := 0; i < simPPN; i++ {
		node.Proc(i).Set(0, directory.ReadOnly)
	}
	out["vm.loosest_ns"] = nsPerOp(1_000_000, func(n int) {
		var s int64
		for i := 0; i < n; i++ {
			s += int64(node.Loosest(0))
		}
		sink.Store(s)
	})

	// directory: the lock-free global directory of an 8-node cluster
	// over the simulated Memory Channel.
	dir := directory.NewGlobal(simchan.New(simNodes, costs.Default()), directory.Packed(),
		64, simNodes, func(n int) int { return n }, false)
	out["directory.load_ns"] = nsPerOp(1_000_000, func(n int) {
		var s int64
		for i := 0; i < n; i++ {
			s += int64(dir.Load(0, i&63, i&7))
		}
		sink.Store(s)
	})
	word := directory.Packed().Make(directory.ReadOnly, -1, 0, true)
	out["directory.store_ns"] = nsPerOp(1_000_000, func(n int) {
		var s int64
		for i := 0; i < n; i++ {
			s += dir.Store(i&7, i&63, word, int64(i))
		}
		sink.Store(s)
	})

	// wnotice: a post, and a drain of a list holding one notice from
	// each of 8 senders (the cycle's cost minus its posts).
	posts := nsPerOp(1_000_000, func(n int) {
		g := wnotice.NewGlobal(simNodes)
		for i := 0; i < n; i++ {
			g.Post(i&7, i&63)
		}
	})
	cycle := nsPerOp(100_000, func(n int) {
		g := wnotice.NewGlobal(simNodes)
		for i := 0; i < n; i++ {
			for s := 0; s < simNodes; s++ {
				g.Post(s, i&63)
			}
			sink.Add(int64(len(g.Drain())))
		}
	})
	out["wnotice.post_ns"] = posts
	out["wnotice.drain_ns"] = max(cycle-simNodes*posts, 0)
	return nil
}
