package bench

import (
	"runtime"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/topology"
)

// goldenCell pins one cell's virtual-time statistics to the values the
// pre-topology-refactor revision produced (captured from main before
// the directory-layout and interconnect parameterization landed). The
// refactor's contract is that the paper's configurations are
// bit-identical: the packed directory layout encodes the same words,
// the serial fabric charges the same contention, and the barrier
// interpolation is unchanged at and below 32 processors.
type goldenCell struct {
	app   string
	kind  core.Kind
	topo  topology.Spec
	exec  int64
	bytes int64
}

// Topologies of the golden set, in the paper's P:ppn notation:
// 32:4 = 8x4, 8:2 = 4x2, 8:1 = 8x1.
var (
	g32x4 = topology.New(8, 4)
	g8x2  = topology.New(4, 2)
	g8x1  = topology.New(8, 1)
)

// goldenCells covers the deterministic barrier applications under all
// four protocols at three paper topologies. Two cells whose virtual
// times are not stable across repeated same-binary runs (their
// tie-breaks sit on a host-scheduling edge even at GOMAXPROCS=1) are
// omitted (Gauss/2LS/8:1 and Em3d/1LD/32:4), as is the whole
// write-doubling protocol (1L): repeated same-binary runs of its cells
// occasionally flip a tie-break, so they cannot pin exact values.
var goldenCells = []goldenCell{
	{"SOR", core.TwoLevel, g32x4, 49377455, 432448},
	{"SOR", core.TwoLevelSD, g32x4, 43013402, 432448},
	{"SOR", core.OneLevelDiff, g32x4, 72529354, 1709456},
	{"SOR", core.TwoLevel, g8x2, 56853386, 281352},
	{"SOR", core.TwoLevelSD, g8x2, 48708647, 281352},
	{"SOR", core.OneLevelDiff, g8x2, 66801215, 374088},
	{"SOR", core.TwoLevel, g8x1, 63234837, 373960},
	{"SOR", core.TwoLevelSD, g8x1, 60604147, 373960},
	{"SOR", core.OneLevelDiff, g8x1, 63200939, 374088},

	{"LU", core.TwoLevel, g32x4, 28147477, 110128},
	{"LU", core.TwoLevelSD, g32x4, 25143003, 110128},
	{"LU", core.OneLevelDiff, g32x4, 53498777, 352256},
	{"LU", core.TwoLevel, g8x2, 32924159, 159576},
	{"LU", core.TwoLevelSD, g8x2, 28560097, 159576},
	{"LU", core.OneLevelDiff, g8x2, 43307575, 235704},
	{"LU", core.TwoLevel, g8x1, 43812089, 236272},
	{"LU", core.TwoLevelSD, g8x1, 38395497, 236272},
	{"LU", core.OneLevelDiff, g8x1, 43236089, 235704},

	{"Gauss", core.TwoLevel, g32x4, 35718752, 120904},
	{"Gauss", core.TwoLevelSD, g32x4, 34476631, 120984},
	{"Gauss", core.OneLevelDiff, g32x4, 48567831, 428448},
	{"Gauss", core.TwoLevel, g8x2, 59039395, 263680},
	{"Gauss", core.TwoLevelSD, g8x2, 58828143, 268328},
	{"Gauss", core.OneLevelDiff, g8x2, 72196971, 403096},
	{"Gauss", core.TwoLevel, g8x1, 72075748, 402744},
	{"Gauss", core.OneLevelDiff, g8x1, 72196971, 403096},

	{"Em3d", core.TwoLevel, g32x4, 101687966, 1230560},
	{"Em3d", core.TwoLevelSD, g32x4, 82616628, 1230560},
	{"Em3d", core.TwoLevel, g8x2, 59084717, 437424},
	{"Em3d", core.TwoLevelSD, g8x2, 47276334, 437424},
	{"Em3d", core.OneLevelDiff, g8x2, 89739757, 728392},
	{"Em3d", core.TwoLevel, g8x1, 86836396, 736224},
	{"Em3d", core.TwoLevelSD, g8x1, 70383862, 736224},
	{"Em3d", core.OneLevelDiff, g8x1, 85212552, 728392},
}

// TestGoldenPaperConfigsBitIdentical asserts that the paper's default
// configurations produce virtual-time statistics bit-identical to the
// pre-refactor revision of this codebase. It shares the determinism
// test's preconditions (GOMAXPROCS=1, no race detector — see
// TestVirtualTimeDeterminism for why).
func TestGoldenPaperConfigsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden sweep")
	}
	if raceEnabled {
		t.Skip("virtual-time tie-breaks flip under the race detector (see determinism test)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, g := range goldenCells {
		g := g
		t.Run(g.app+"/"+g.kind.String()+"/"+g.topo.String(), func(t *testing.T) {
			cfg := core.Config{
				Nodes:        g.topo.Nodes,
				ProcsPerNode: g.topo.ProcsPerNode,
				Protocol:     g.kind,
			}
			// Even the retained cells can, rarely, land a virtual-time
			// tie-break on the wrong side of a host-scheduling edge. A
			// genuine protocol change is deterministic and reproduces on
			// every run, so one retry separates drift from flake.
			var res core.Result
			for attempt := 0; ; attempt++ {
				var err error
				res, err = apps.Run(freshApp(t, g.app), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if (res.ExecNS == g.exec && res.DataBytes == g.bytes) || attempt == 1 {
					break
				}
				t.Logf("attempt %d: ExecNS %d / DataBytes %d off golden; retrying to rule out a tie-break flake",
					attempt, res.ExecNS, res.DataBytes)
			}
			if res.ExecNS != g.exec {
				t.Errorf("ExecNS = %d, want pre-refactor %d (drift %+d)",
					res.ExecNS, g.exec, res.ExecNS-g.exec)
			}
			if res.DataBytes != g.bytes {
				t.Errorf("DataBytes = %d, want pre-refactor %d", res.DataBytes, g.bytes)
			}
		})
	}
}
