package apps

import (
	"testing"

	"cashmere/internal/stats"
)

func TestLUGrid(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		2:  {1, 2},
		4:  {2, 2},
		8:  {2, 4},
		16: {4, 4},
		24: {4, 6},
		32: {4, 8},
	}
	for np, want := range cases {
		pr, pc := luGrid(np)
		if pr*pc != np {
			t.Errorf("luGrid(%d) = %dx%d does not cover all procs", np, pr, pc)
		}
		if pr != want[0] || pc != want[1] {
			t.Errorf("luGrid(%d) = %dx%d, want %dx%d", np, pr, pc, want[0], want[1])
		}
	}
}

func TestLUOwnershipCoversAllBlocks(t *testing.T) {
	l := SmallLU()
	for _, np := range []int{1, 2, 4, 8} {
		counts := make([]int, np)
		nb := l.nb()
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				o := l.owner(i, j, np)
				if o < 0 || o >= np {
					t.Fatalf("owner(%d,%d,%d) = %d out of range", i, j, np, o)
				}
				counts[o]++
			}
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != nb*nb {
			t.Errorf("np=%d: %d blocks assigned, want %d", np, total, nb*nb)
		}
	}
}

func TestLUFactorizationCorrect(t *testing.T) {
	// Multiply L*U back together from the sequential reference and
	// compare against the original matrix: a true end-to-end check
	// that the kernel really factors.
	l := SmallLU()
	l.runSeq(defaultCosts())
	n := l.N
	a := func(i, j int) float64 { return l.seq[l.addr(i, j)-l.mat] }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k <= min(i, j); k++ {
				lik := a(i, k)
				if k == i {
					lik = 1.0 // unit diagonal of L
				}
				sum += lik * a(k, j)
			}
			if err := verifyF("LU recomposition", i*n+j, sum, l.initVal(i, j), 1e-9); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestGaussSolvesSystem(t *testing.T) {
	// The sequential solution must actually satisfy A*x = b.
	g := SmallGauss()
	g.runSeq(defaultCosts())
	n := g.N
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += g.initVal(i, j) * g.seq[j]
		}
		if err := verifyF("Gauss residual", i, sum, g.initVal(i, n), 1e-6); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGaussFlagsPerRow(t *testing.T) {
	g := SmallGauss()
	sh := g.Shape()
	if sh.Flags != g.N {
		t.Errorf("Flags = %d, want %d", sh.Flags, g.N)
	}
}

func TestGaussLockFlagAcquireCount(t *testing.T) {
	// Every non-owner performs one flag acquire per row.
	g := SmallGauss()
	res, err := Run(g, small2x2)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(g.N * 3) // 4 procs: 3 waiters per row
	if got := res.Counts[stats.LockAcquires]; got < want {
		t.Errorf("flag acquires = %d, want >= %d", got, want)
	}
}
