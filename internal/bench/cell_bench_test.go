package bench

import (
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
)

// End-to-end cell benchmarks: one full application run at the default
// (scaled-down) evaluation size on the paper's full 8x4 cluster, per
// iteration. These are the per-cell wall-clock numbers EXPERIMENTS.md
// "Wall-clock performance" quotes; verification is excluded so the
// timing covers only the simulated run itself.

func benchCell(b *testing.B, mk func() apps.App, kind core.Kind) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		app := mk()
		shape := app.Shape()
		cfg := core.Config{
			Nodes:        FullCluster.Nodes,
			ProcsPerNode: FullCluster.PPN,
			Protocol:     kind,
			SharedWords:  shape.SharedWords,
			Locks:        shape.Locks,
			Flags:        shape.Flags,
			PageWords:    apps.PageWords,
		}
		c, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.Run(func(p *core.Proc) { app.Body(p) })
	}
}

func BenchmarkCellSOR2L(b *testing.B) {
	benchCell(b, func() apps.App { return apps.DefaultSOR() }, core.TwoLevel)
}

func BenchmarkCellLU2L(b *testing.B) {
	benchCell(b, func() apps.App { return apps.DefaultLU() }, core.TwoLevel)
}

func BenchmarkCellGauss2L(b *testing.B) {
	benchCell(b, func() apps.App { return apps.DefaultGauss() }, core.TwoLevel)
}

func BenchmarkCellEm3d2L(b *testing.B) {
	benchCell(b, func() apps.App { return apps.DefaultEm3d() }, core.TwoLevel)
}

func BenchmarkCellSOR1L(b *testing.B) {
	benchCell(b, func() apps.App { return apps.DefaultSOR() }, core.OneLevelWrite)
}
