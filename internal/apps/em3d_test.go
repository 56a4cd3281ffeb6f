package apps

import (
	"testing"
)

func TestEm3dDepWraps(t *testing.T) {
	e := SmallEm3d()
	for i := 0; i < e.Nodes; i++ {
		for d := 0; d < e.Degree; d++ {
			j := e.dep(i, d)
			if j < 0 || j >= e.Nodes {
				t.Fatalf("dep(%d,%d) = %d out of range", i, d, j)
			}
		}
	}
}

func TestEm3dValuesEvolve(t *testing.T) {
	e := SmallEm3d()
	e.runSeq(defaultCosts())
	same := 0
	for i := 0; i < e.Nodes; i++ {
		if e.seq[i] == e.initVal(0, i) {
			same++
		}
	}
	if same == e.Nodes {
		t.Error("E field unchanged after simulation")
	}
}

func TestIlinkLoadImbalance(t *testing.T) {
	// The paper attributes Ilink's limited scalability to serial
	// fraction and load imbalance; the synthetic workload must exhibit
	// varying per-slot work.
	il := SmallIlink()
	seen := map[int]bool{}
	for s := 0; s < il.Slots; s++ {
		if il.nonzero(s) {
			seen[il.workUnits(s)] = true
		}
	}
	if len(seen) < 3 {
		t.Errorf("work units take only %d distinct values", len(seen))
	}
}

func TestIlinkSparsity(t *testing.T) {
	il := SmallIlink()
	nz := 0
	for s := 0; s < il.Slots; s++ {
		if il.nonzero(s) {
			nz++
		}
	}
	frac := float64(nz) / float64(il.Slots)
	if frac < 0.4 || frac > 0.95 {
		t.Errorf("non-zero fraction = %.2f, want sparse-but-busy pool", frac)
	}
}
