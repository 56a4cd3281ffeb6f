package core

import (
	"testing"
)

// Wall-clock microbenchmarks for the shared-access fast path: scalar
// Load/Store, the range kernels, and the write-doubling store path.
// These measure simulator overhead (host nanoseconds per simulated
// access), not virtual time; EXPERIMENTS.md "Wall-clock performance"
// quotes the before/after numbers of the fast-path PR.

// benchCluster builds a small cluster and returns processor 0, which
// the benchmark goroutine drives directly (a Proc is owned by one
// goroutine; any single goroutine may be the owner).
func benchCluster(b *testing.B, nodes int, kind Kind) (*Cluster, *Proc) {
	b.Helper()
	c, err := New(Config{
		Nodes:        nodes,
		ProcsPerNode: 1,
		Protocol:     kind,
		SharedWords:  64 * 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c, c.procs[0]
}

// touchAll maps every page at p with write permission so the benchmark
// loop measures only the no-fault fast path.
func touchAll(p *Proc) {
	for a := 0; a < p.Words(); a += p.PageWords() {
		p.Store(a, 1)
	}
}

func BenchmarkLoad(b *testing.B) {
	_, p := benchCluster(b, 1, TwoLevel)
	touchAll(p)
	mask := p.Words() - 1
	b.ResetTimer()
	var s int64
	for i := 0; i < b.N; i++ {
		s += p.Load(i & mask)
	}
	sinkInt64 = s
}

func BenchmarkStore(b *testing.B) {
	_, p := benchCluster(b, 1, TwoLevel)
	touchAll(p)
	mask := p.Words() - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Store(i&mask, int64(i))
	}
}

// BenchmarkStoreDoubling measures the 1L write-doubling store path: a
// two-node cluster where processor 0 writes a page homed on node 1, so
// every store propagates to the master copy.
func BenchmarkStoreDoubling(b *testing.B) {
	c, p := benchCluster(b, 2, OneLevelWrite)
	// Superpage 1 (pages 8..15) is homed on node 1 by the round-robin
	// default; writes there are doubled.
	base := 8 * c.PageWords()
	mask := c.PageWords() - 1
	p.Store(base, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Store(base+(i&mask), int64(i))
	}
}

func BenchmarkLoadRange(b *testing.B) {
	_, p := benchCluster(b, 1, TwoLevel)
	touchAll(p)
	buf := make([]int64, p.PageWords())
	b.SetBytes(int64(len(buf)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.LoadRange(buf, 0)
	}
}

func BenchmarkStoreRange(b *testing.B) {
	_, p := benchCluster(b, 1, TwoLevel)
	touchAll(p)
	buf := make([]int64, p.PageWords())
	b.SetBytes(int64(len(buf)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.StoreRange(0, buf)
	}
}

// BenchmarkStoreRangeDoubling is BenchmarkStoreDoubling through the
// range kernel: every word still propagates to the master copy and is
// charged, but permission checks and accounting are per run.
func BenchmarkStoreRangeDoubling(b *testing.B) {
	c, p := benchCluster(b, 2, OneLevelWrite)
	base := 8 * c.PageWords()
	buf := make([]int64, c.PageWords())
	p.Store(base, 1)
	b.SetBytes(int64(len(buf)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.StoreRange(base, buf)
	}
}

func BenchmarkLoadFRow(b *testing.B) {
	_, p := benchCluster(b, 1, TwoLevel)
	touchAll(p)
	buf := make([]float64, p.PageWords())
	b.SetBytes(int64(len(buf)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.LoadFRow(buf, 0)
	}
}

var sinkInt64 int64
