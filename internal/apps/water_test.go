package apps

import (
	"testing"

	"cashmere/internal/stats"
)

func TestWaterMigratorySharing(t *testing.T) {
	// Water's force accumulation must actually exercise the locks.
	w := SmallWater()
	res, err := Run(w, small2x2)
	if err != nil {
		t.Fatal(err)
	}
	// Every processor locks at least its own neighbourhood's stripes
	// each step (the cutoff keeps it from needing every stripe).
	wantLocks := int64(w.Steps * 4)
	if got := res.Counts[stats.LockAcquires]; got < wantLocks {
		t.Errorf("lock acquires = %d, want >= %d", got, wantLocks)
	}
}

func TestWaterMoleculesMove(t *testing.T) {
	w := SmallWater()
	w.runSeq(defaultCosts())
	moved := 0
	for i := 0; i < w.N; i++ {
		for d := 0; d < 3; d++ {
			if w.seqPos[3*i+d] != w.initPos(i, d) {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Error("no molecule moved during the simulation")
	}
}

func TestTSPTaskPrefixesDistinct(t *testing.T) {
	ts := SmallTSP()
	ts.Shape()
	seen := map[string]bool{}
	var buf []int
	for k := 0; k < ts.ntask; k++ {
		buf = ts.taskPrefix(k, buf)
		if len(buf) != ts.Depth+1 || buf[0] != 0 {
			t.Fatalf("task %d prefix %v malformed", k, buf)
		}
		key := ""
		inPrefix := map[int]bool{}
		for _, c := range buf {
			if c < 0 || c >= ts.Cities || inPrefix[c] {
				t.Fatalf("task %d prefix %v has invalid/repeated city", k, buf)
			}
			inPrefix[c] = true
			key += string(rune('A' + c))
		}
		if seen[key] {
			t.Fatalf("duplicate task prefix %v", buf)
		}
		seen[key] = true
	}
}

func TestTSPSeqFindsOptimal(t *testing.T) {
	// Brute-force a tiny instance and compare with the DFS.
	ts := &TSP{Cities: 6, Depth: 1}
	ts.runSeq(defaultCosts())
	best := tspInf
	perm := []int{1, 2, 3, 4, 5}
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			cost := ts.distVal(0, perm[0])
			for i := 1; i < len(perm); i++ {
				cost += ts.distVal(perm[i-1], perm[i])
			}
			cost += ts.distVal(perm[len(perm)-1], 0)
			if cost < best {
				best = cost
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if ts.seqBest != best {
		t.Errorf("DFS best = %d, brute force = %d", ts.seqBest, best)
	}
}

func TestBarnesTreeInvariants(t *testing.T) {
	b := SmallBarnes()
	sh := b.Shape()
	m := flatMem{w: make([]float64, sh.SharedWords)}
	for i := 0; i < b.N; i++ {
		for d := 0; d < 3; d++ {
			m.st(b.pos+3*i+d, b.initPos(i, d))
		}
	}
	b.buildTree(m)
	// Total mass at the root equals the body count.
	if got := m.ld(b.nodes + offMass); got != float64(b.N) {
		t.Errorf("root mass = %g, want %d", got, b.N)
	}
	// Every body appears in exactly one leaf.
	found := make([]int, b.N)
	n := int(m.ldi(b.nnodes))
	for node := 0; node < n; node++ {
		if bd := m.ldi(b.nodes + nodeStride*node + offBody); bd >= 0 {
			found[bd]++
		}
	}
	for i, c := range found {
		if c != 1 {
			t.Errorf("body %d appears in %d leaves", i, c)
		}
	}
}

func TestBarnesThetaControlsInteractions(t *testing.T) {
	// A smaller theta must produce at least as many interactions.
	count := func(theta float64) int64 {
		b := SmallBarnes()
		b.Theta = theta
		sh := b.Shape()
		m := flatMem{w: make([]float64, sh.SharedWords)}
		for i := 0; i < b.N; i++ {
			for d := 0; d < 3; d++ {
				m.st(b.pos+3*i+d, b.initPos(i, d))
			}
		}
		b.buildTree(m)
		total := int64(0)
		buf := make([]float64, 3)
		for i := 0; i < b.N; i++ {
			total += b.forceOn(m, i, buf)
		}
		return total
	}
	tight, loose := count(0.2), count(1.5)
	if tight <= loose {
		t.Errorf("theta=0.2 interactions (%d) not more than theta=1.5 (%d)", tight, loose)
	}
}

func TestSuiteRegistry(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("All() returned %d apps, want 8", len(all))
	}
	wantOrder := []string{"SOR", "LU", "Water", "TSP", "Gauss", "Ilink", "Em3d", "Barnes"}
	for i, a := range all {
		if a.Name() != wantOrder[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name(), wantOrder[i])
		}
		if a.DataSet() == "" {
			t.Errorf("%s has empty DataSet", a.Name())
		}
		if a.SeqTime(defaultCosts()) <= 0 {
			t.Errorf("%s SeqTime not positive", a.Name())
		}
	}
	if len(Small()) != 8 {
		t.Error("Small() must cover the full suite")
	}
}
