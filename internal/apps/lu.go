package apps

import (
	"fmt"

	"cashmere/internal/costs"
)

// LU is the blocked dense LU factorization kernel from SPLASH-2 (paper
// Section 3.2): A = L*U without pivoting. The matrix is divided into
// B x B blocks for temporal and spatial locality; each block is owned
// by one processor (2D scatter), which performs all computation on it.
// Barriers separate the diagonal, perimeter, and interior phases of
// each step. Block ownership makes LU's page accesses bursty: a pivot
// block sits in exclusive mode while being factored, then is suddenly
// demanded by every perimeter owner — the behaviour behind LU's
// negative clustering effect under the one-level protocols (Section
// 3.3.3).
type LU struct {
	N, B int // matrix dimension and block size

	mat int // base address, block-major: block (I,J) contiguous

	seq   []float64
	seqNS int64
}

// DefaultLU returns the scaled-down default instance; with B = 32 each
// block is exactly one 8 Kbyte page.
func DefaultLU() *LU { return &LU{N: 384, B: 32} }

// SmallLU returns a tiny instance for tests.
func SmallLU() *LU { return &LU{N: 32, B: 8} }

// Name returns "LU".
func (l *LU) Name() string { return "LU" }

// DataSet describes the matrix.
func (l *LU) DataSet() string {
	return fmt.Sprintf("%dx%d matrix (%.1f MB), %dx%d blocks",
		l.N, l.N, float64(l.N*l.N*8)/(1<<20), l.B, l.B)
}

// Shape returns the resources LU needs.
func (l *LU) Shape() Shape {
	lay := NewLayout(PageWords)
	l.mat = lay.Array(l.N * l.N)
	return Shape{SharedWords: lay.Words()}
}

// Per-element costs on the 21064A: one fused multiply-subtract chain.
const luFlopNS = 1200
const luTraffic = 80

func (l *LU) nb() int { return l.N / l.B }

// blockBase returns the address of block (I,J), stored block-major.
func (l *LU) blockBase(I, J int) int {
	return l.mat + (I*l.nb()+J)*l.B*l.B
}

// owner implements the SPLASH-2 2D scatter: block (I,J) belongs to
// processor (I mod pr)*pc + (J mod pc).
func luGrid(nprocs int) (pr, pc int) {
	pr = 1
	for (pr*2)*(pr*2) <= nprocs && nprocs%(pr*2) == 0 {
		pr *= 2
	}
	return pr, nprocs / pr
}

func (l *LU) owner(I, J, nprocs int) int {
	pr, pc := luGrid(nprocs)
	return (I%pr)*pc + (J % pc)
}

func (l *LU) initVal(i, j int) float64 {
	v := 1.0 / float64(i+j+1)
	if i == j {
		v += float64(l.N)
	}
	return v
}

// Body runs the parallel blocked LU factorization.
func (l *LU) Body(p Proc) {
	n, nb := l.N, l.nb()
	p.BeginInit()
	if p.ID() == 0 {
		// Rows are contiguous per block in the block-major layout, so
		// initialize one in-block row run at a time.
		b := l.B
		row := make([]float64, b)
		for i := 0; i < n; i++ {
			for J := 0; J < nb; J++ {
				for c := 0; c < b; c++ {
					row[c] = l.initVal(i, J*b+c)
				}
				p.StoreFRow(l.addr(i, J*b), row)
			}
		}
	}
	p.EndInit()

	np := p.NProcs()
	me := p.ID()
	p.Warmup(func() {
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				if l.owner(i, j, np) == me {
					a := l.blockBase(i, j)
					p.StoreF(a, p.LoadF(a))
				}
			}
		}
	})
	scratch := newLUScratch(l.B)
	for k := 0; k < nb; k++ {
		// Factor the diagonal block.
		if l.owner(k, k, np) == me {
			l.factorDiag(p, k, scratch)
		}
		p.Barrier()
		// Perimeter blocks in pivot row and column.
		for j := k + 1; j < nb; j++ {
			if l.owner(k, j, np) == me {
				l.solveRow(p, k, j, scratch)
			}
			if l.owner(j, k, np) == me {
				l.solveCol(p, j, k, scratch)
			}
		}
		p.Barrier()
		// Interior update.
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				if l.owner(i, j, np) == me {
					l.updateInterior(p, i, j, k, scratch)
				}
			}
		}
		p.Barrier()
	}
}

// Element accessors translating (i,j) to the block-major address.
func (l *LU) addr(i, j int) int {
	I, J := i/l.B, j/l.B
	return l.blockBase(I, J) + (i%l.B)*l.B + (j % l.B)
}

func (l *LU) store(st func(int, float64), i, j int, v float64) { st(l.addr(i, j), v) }

// luScratch holds per-processor row buffers for the range kernels; each
// Body's processor owns one, so the kernels allocate nothing per call.
type luScratch struct {
	piv, row, aux []float64
}

func newLUScratch(b int) *luScratch {
	return &luScratch{
		piv: make([]float64, b),
		row: make([]float64, b),
		aux: make([]float64, b),
	}
}

// factorDiag performs an unblocked LU factorization of diagonal block k.
// Each (kk,i) step reads and writes the contiguous tail [kk,b) of
// in-block row i, so the tails move through the range kernels; the
// floating-point expressions and the fault order (block read before
// block write) match the scalar version exactly.
func (l *LU) factorDiag(p Proc, k int, s *luScratch) {
	b := l.B
	base := k * b
	ops := 0
	for kk := 0; kk < b; kk++ {
		tail := s.piv[:b-kk]
		p.LoadFRow(tail, l.addr(base+kk, base+kk))
		piv := tail[0]
		for i := kk + 1; i < b; i++ {
			row := s.row[:b-kk]
			p.LoadFRow(row, l.addr(base+i, base+kk))
			m := row[0] / piv
			row[0] = m
			for c := 1; c < len(row); c++ {
				row[c] = row[c] - m*tail[c]
				ops++
			}
			p.StoreFRow(l.addr(base+i, base+kk), row)
		}
		p.Poll()
	}
	p.Compute(int64(ops)*luFlopNS, int64(ops)*luTraffic)
}

// solveRow computes U_kj = L_kk^{-1} A_kj for perimeter block (k,j).
// The multipliers come from a strided column of the diagonal block and
// stay scalar; the target rows are full contiguous in-block rows. The
// multiplier load stays first so the diagonal page still faults before
// the target page, and the kk pivot row loads lazily after the first
// target row exactly where the scalar version first touched it.
func (l *LU) solveRow(p Proc, k, j int, s *luScratch) {
	b := l.B
	rbase, cbase := k*b, j*b
	ops := 0
	for kk := 0; kk < b; kk++ {
		loaded := false
		for i := kk + 1; i < b; i++ {
			m := p.LoadF(l.addr(k*b+i, k*b+kk))
			p.LoadFRow(s.row, l.addr(rbase+i, cbase))
			if !loaded {
				p.LoadFRow(s.piv, l.addr(rbase+kk, cbase))
				loaded = true
			}
			for c := 0; c < b; c++ {
				s.row[c] = s.row[c] - m*s.piv[c]
				ops++
			}
			p.StoreFRow(l.addr(rbase+i, cbase), s.row)
		}
		p.Poll()
	}
	p.Compute(int64(ops)*luFlopNS, int64(ops)*luTraffic)
}

// solveCol computes L_jk = A_jk U_kk^{-1} for perimeter block (j,k).
// Both the pivot row tail in the diagonal block and the target row
// tails are contiguous runs [kk,b); the pivot tail loads first (its
// first word is the pivot), preserving the diagonal-then-target fault
// order of the scalar version.
func (l *LU) solveCol(p Proc, j, k int, s *luScratch) {
	b := l.B
	rbase, cbase := j*b, k*b
	ops := 0
	for kk := 0; kk < b; kk++ {
		tail := s.piv[:b-kk]
		p.LoadFRow(tail, l.addr(k*b+kk, k*b+kk))
		piv := tail[0]
		for i := 0; i < b; i++ {
			row := s.row[:b-kk]
			p.LoadFRow(row, l.addr(rbase+i, cbase+kk))
			m := row[0] / piv
			row[0] = m
			for c := 1; c < len(row); c++ {
				row[c] = row[c] - m*tail[c]
				ops++
			}
			p.StoreFRow(l.addr(rbase+i, cbase+kk), row)
		}
		p.Poll()
	}
	p.Compute(int64(ops)*luFlopNS, int64(ops)*luTraffic)
}

// updateInterior applies A_ij -= L_ik * U_kj. The multipliers for
// target row r form in-block row r of L_ik, loaded as one run; the
// target row loads lazily on the first nonzero multiplier, so a row
// whose multipliers are all zero touches neither A_ij nor U_kj, exactly
// like the scalar version.
func (l *LU) updateInterior(p Proc, i, j, k int, s *luScratch) {
	b := l.B
	ops := 0
	for r := 0; r < b; r++ {
		p.LoadFRow(s.piv, l.addr(i*b+r, k*b))
		loaded := false
		for kk := 0; kk < b; kk++ {
			m := s.piv[kk]
			if m == 0 {
				continue
			}
			if !loaded {
				p.LoadFRow(s.row, l.addr(i*b+r, j*b))
				loaded = true
			}
			p.LoadFRow(s.aux, l.addr(k*b+kk, j*b))
			for c := 0; c < b; c++ {
				s.row[c] = s.row[c] - m*s.aux[c]
				ops++
			}
			p.StoreFRow(l.addr(i*b+r, j*b), s.row)
		}
		p.Poll()
	}
	p.Compute(int64(ops)*luFlopNS, int64(ops)*luTraffic)
}

// runSeq computes the sequential reference (identical blocked
// algorithm, identical floating-point operation order).
func (l *LU) runSeq(m costs.Model) {
	if l.seq != nil {
		return
	}
	l.Shape()
	a := make([]float64, l.N*l.N)
	ld := func(addr int) float64 { return a[addr-l.mat] }
	st := func(addr int, v float64) { a[addr-l.mat] = v }
	clk := NewSeqClock(m)
	sp := &seqProcLU{lu: l, ld: ld, st: st, clk: clk}

	for i := 0; i < l.N; i++ {
		for j := 0; j < l.N; j++ {
			st(l.addr(i, j), l.initVal(i, j))
		}
	}
	nb := l.nb()
	for k := 0; k < nb; k++ {
		sp.factorDiag(k)
		for j := k + 1; j < nb; j++ {
			sp.solveRow(k, j)
			sp.solveCol(j, k)
		}
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				sp.updateInterior(i, j, k)
			}
		}
	}
	l.seq = a
	l.seqNS = clk.NS()
}

// seqProcLU mirrors the parallel kernels on plain memory.
type seqProcLU struct {
	lu  *LU
	ld  func(int) float64
	st  func(int, float64)
	clk *SeqClock
}

func (s *seqProcLU) factorDiag(k int) {
	l, b := s.lu, s.lu.B
	base := k * b
	ops := 0
	for kk := 0; kk < b; kk++ {
		piv := s.ld(l.addr(base+kk, base+kk))
		for i := kk + 1; i < b; i++ {
			m := s.ld(l.addr(base+i, base+kk)) / piv
			s.st(l.addr(base+i, base+kk), m)
			for j := kk + 1; j < b; j++ {
				s.st(l.addr(base+i, base+j), s.ld(l.addr(base+i, base+j))-m*s.ld(l.addr(base+kk, base+j)))
				ops++
			}
		}
	}
	s.clk.Compute(int64(ops)*luFlopNS, int64(ops)*luTraffic)
}

func (s *seqProcLU) solveRow(k, j int) {
	l, b := s.lu, s.lu.B
	rbase, cbase := k*b, j*b
	ops := 0
	for kk := 0; kk < b; kk++ {
		for i := kk + 1; i < b; i++ {
			m := s.ld(l.addr(k*b+i, k*b+kk))
			for c := 0; c < b; c++ {
				s.st(l.addr(rbase+i, cbase+c), s.ld(l.addr(rbase+i, cbase+c))-m*s.ld(l.addr(rbase+kk, cbase+c)))
				ops++
			}
		}
	}
	s.clk.Compute(int64(ops)*luFlopNS, int64(ops)*luTraffic)
}

func (s *seqProcLU) solveCol(j, k int) {
	l, b := s.lu, s.lu.B
	rbase, cbase := j*b, k*b
	ops := 0
	for kk := 0; kk < b; kk++ {
		piv := s.ld(l.addr(k*b+kk, k*b+kk))
		for i := 0; i < b; i++ {
			m := s.ld(l.addr(rbase+i, cbase+kk)) / piv
			s.st(l.addr(rbase+i, cbase+kk), m)
			for c := kk + 1; c < b; c++ {
				s.st(l.addr(rbase+i, cbase+c), s.ld(l.addr(rbase+i, cbase+c))-m*s.ld(l.addr(k*b+kk, k*b+c)))
				ops++
			}
		}
	}
	s.clk.Compute(int64(ops)*luFlopNS, int64(ops)*luTraffic)
}

func (s *seqProcLU) updateInterior(i, j, k int) {
	l, b := s.lu, s.lu.B
	ops := 0
	for r := 0; r < b; r++ {
		for kk := 0; kk < b; kk++ {
			m := s.ld(l.addr(i*b+r, k*b+kk))
			if m == 0 {
				continue
			}
			for c := 0; c < b; c++ {
				s.st(l.addr(i*b+r, j*b+c), s.ld(l.addr(i*b+r, j*b+c))-m*s.ld(l.addr(k*b+kk, j*b+c)))
				ops++
			}
		}
	}
	s.clk.Compute(int64(ops)*luFlopNS, int64(ops)*luTraffic)
}

// SeqTime returns the sequential execution time.
func (l *LU) SeqTime(m costs.Model) int64 {
	l.runSeq(m)
	return l.seqNS
}

// Verify compares the parallel factorization against the reference.
// Every element is written by exactly one owner in a fixed order, so
// the comparison is exact.
func (l *LU) Verify(c Memory) error {
	l.runSeq(c.Model())
	for i, want := range l.seq {
		if got := c.ReadSharedF(l.mat + i); got != want {
			return fmt.Errorf("LU: element %d = %g, want %g", i, got, want)
		}
	}
	return nil
}
