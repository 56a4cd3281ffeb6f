package bench

import (
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/topology"
)

// goldenCell pins one cell's virtual-time statistics. A refactor that
// claims to leave the protocol alone must leave every cell bit-identical:
// the packed directory layout encodes the same words, the serial fabric
// charges the same contention, and the barrier interpolation is
// unchanged at and below 32 processors.
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

// goldenCells covers the barrier applications under all four protocols
// at three paper topologies, pinned under the serial executor.
var goldenCells = []goldenCell{
	{"SOR", core.TwoLevel, g32x4, 45608220, 407704},
	{"SOR", core.TwoLevelSD, g32x4, 39578165, 407704},
	{"SOR", core.OneLevelDiff, g32x4, 72794148, 1749864},
	{"SOR", core.OneLevelWrite, g32x4, 68658102, 1754584},
	{"SOR", core.TwoLevel, g8x2, 36494600, 166648},
	{"SOR", core.TwoLevelSD, g8x2, 31132630, 166648},
	{"SOR", core.OneLevelDiff, g8x2, 65908516, 374064},
	{"SOR", core.OneLevelWrite, g8x2, 45068344, 377864},
	{"SOR", core.TwoLevel, g8x1, 63124505, 373960},
	{"SOR", core.TwoLevelSD, g8x1, 60580092, 373960},
	{"SOR", core.OneLevelDiff, g8x1, 63091005, 374064},
	{"SOR", core.OneLevelWrite, g8x1, 44491932, 377864},

	{"LU", core.TwoLevel, g32x4, 29242628, 117712},
	{"LU", core.TwoLevelSD, g32x4, 25887316, 117712},
	{"LU", core.OneLevelDiff, g32x4, 51995815, 343872},
	{"LU", core.OneLevelWrite, g32x4, 38107398, 407608},
	{"LU", core.TwoLevel, g8x2, 25814638, 110400},
	{"LU", core.TwoLevelSD, g8x2, 22802115, 110400},
	{"LU", core.OneLevelDiff, g8x2, 41547566, 219248},
	{"LU", core.OneLevelWrite, g8x2, 28631389, 282528},
	{"LU", core.TwoLevel, g8x1, 41158493, 219872},
	{"LU", core.TwoLevelSD, g8x1, 35833384, 219872},
	{"LU", core.OneLevelDiff, g8x1, 40654993, 219248},
	{"LU", core.OneLevelWrite, g8x1, 28494555, 282528},

	{"Gauss", core.TwoLevel, g32x4, 30055162, 88016},
	{"Gauss", core.TwoLevelSD, g32x4, 29719600, 88016},
	{"Gauss", core.OneLevelDiff, g32x4, 39548993, 387192},
	{"Gauss", core.OneLevelWrite, g32x4, 34241027, 424176},
	{"Gauss", core.TwoLevel, g8x2, 42819969, 123928},
	{"Gauss", core.TwoLevelSD, g8x2, 41518211, 124072},
	{"Gauss", core.OneLevelDiff, g8x2, 51491980, 255144},
	{"Gauss", core.OneLevelWrite, g8x2, 47646611, 285216},
	{"Gauss", core.TwoLevel, g8x1, 50941469, 254976},
	{"Gauss", core.TwoLevelSD, g8x1, 49813347, 257936},
	{"Gauss", core.OneLevelDiff, g8x1, 51294692, 255144},
	{"Gauss", core.OneLevelWrite, g8x1, 46144098, 285216},

	{"Em3d", core.TwoLevel, g32x4, 88511888, 779904},
	{"Em3d", core.TwoLevelSD, g32x4, 70559680, 779904},
	{"Em3d", core.OneLevelDiff, g32x4, 174119464, 3537416},
	{"Em3d", core.OneLevelWrite, g32x4, 141420213, 3537912},
	{"Em3d", core.TwoLevel, g8x2, 48333072, 306320},
	{"Em3d", core.TwoLevelSD, g8x2, 35502322, 306320},
	{"Em3d", core.OneLevelDiff, g8x2, 90248739, 728368},
	{"Em3d", core.OneLevelWrite, g8x2, 55749073, 728480},
	{"Em3d", core.TwoLevel, g8x1, 86606896, 736224},
	{"Em3d", core.TwoLevelSD, g8x1, 70301964, 736224},
	{"Em3d", core.OneLevelDiff, g8x1, 85643654, 728368},
	{"Em3d", core.OneLevelWrite, g8x1, 56724925, 728480},
}

// TestGoldenPaperConfigsBitIdentical asserts that the paper's default
// configurations produce exactly the pinned virtual-time statistics.
// A run is a pure function of its configuration (see
// TestVirtualTimeDeterminism), so any difference is a change of the
// protocol, the cost model or the executor's order.
func TestGoldenPaperConfigsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden sweep")
	}
	for _, g := range goldenCells {
		t.Run(g.app+"/"+g.kind.String()+"/"+g.topo.String(), func(t *testing.T) {
			cfg := core.Config{
				Nodes:        g.topo.Nodes,
				ProcsPerNode: g.topo.ProcsPerNode,
				Protocol:     g.kind,
			}
			res, err := apps.Run(freshApp(t, g.app), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.ExecNS != g.exec {
				t.Errorf("ExecNS = %d, want %d (drift %+d)",
					res.ExecNS, g.exec, res.ExecNS-g.exec)
			}
			if res.DataBytes != g.bytes {
				t.Errorf("DataBytes = %d, want %d", res.DataBytes, g.bytes)
			}
		})
	}
}
