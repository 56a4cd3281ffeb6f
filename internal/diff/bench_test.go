package diff

import "testing"

// Microbenchmarks for the diff primitives over one 1024-word page (the
// platform's 8 Kbyte coherence block) with a 1/8 modification density,
// roughly the sharing pattern of the paper's banded applications.

const benchPage = 1024

func benchPages() (page, twin, home []int64) {
	page = make([]int64, benchPage)
	twin = make([]int64, benchPage)
	home = make([]int64, benchPage)
	for i := range page {
		page[i] = int64(i)
		twin[i] = int64(i)
		home[i] = int64(i)
	}
	for i := 0; i < benchPage; i += 8 {
		page[i] = int64(i) + 1 // local modification
	}
	return
}

func BenchmarkTwin(b *testing.B) {
	page, _, _ := benchPages()
	b.SetBytes(benchPage * 8)
	for i := 0; i < b.N; i++ {
		sink = Twin(page)
	}
}

func BenchmarkOutgoing(b *testing.B) {
	page, twin, home := benchPages()
	b.SetBytes(benchPage * 8)
	for i := 0; i < b.N; i++ {
		sinkN = Outgoing(page, twin, home)
	}
}

func BenchmarkIncoming(b *testing.B) {
	page, twin, home := benchPages()
	for i := 0; i < benchPage; i += 16 {
		home[i] = int64(i) + 2 // remote modification
	}
	b.SetBytes(benchPage * 8)
	for i := 0; i < b.N; i++ {
		sinkN = Incoming(page, twin, home)
	}
}

var (
	sink  []int64
	sinkN int
)

// BenchmarkAppendRuns run-encodes one page's outgoing diff into reused
// buffers: sparse is benchPages' every-eighth-word pattern (128
// one-word runs), dense a page changed throughout (one run).
func BenchmarkAppendRuns(b *testing.B) {
	sparse, twin, _ := benchPages()
	dense := make([]int64, benchPage)
	for i := range dense {
		dense[i] = twin[i] + 1
	}
	for _, bc := range []struct {
		name string
		page []int64
	}{{"sparse", sparse}, {"dense", dense}} {
		b.Run(bc.name, func(b *testing.B) {
			offs, words := make([]int32, 0, 2*benchPage), make([]int64, 0, benchPage)
			b.SetBytes(benchPage * 8)
			for i := 0; i < b.N; i++ {
				offs, words, _, sinkN = AppendRuns(offs[:0], words[:0], bc.page, twin)
			}
			sink = words
		})
	}
}
