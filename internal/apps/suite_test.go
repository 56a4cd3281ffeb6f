package apps_test

import (
	"fmt"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/apps/proctest"
	"cashmere/internal/core"
)

// engine is the suite's Engine on a simulated cluster configured as cfg.
func engine(cfg core.Config) proctest.Engine {
	return func(_ *testing.T, mk func() apps.App, nodes, ppn, pageWords int) error {
		cfg := cfg
		cfg.Nodes, cfg.ProcsPerNode, cfg.PageWords = nodes, ppn, pageWords
		app := mk()
		res, err := apps.Run(app, cfg)
		if sp := apps.Speedup(app, cfg, res); err == nil && sp <= 0 {
			err = fmt.Errorf("%v: speedup %v over %d ns", cfg.Protocol, sp, res.ExecNS)
		}
		if err != nil && cfg.HomeOpt {
			err = fmt.Errorf("homeopt: %w", err)
		}
		return err
	}
}

// allProtocols runs the apps.Proc contract suite's case for the named
// application at 2x2 under every protocol, and under the one-level ones
// with the home-node optimization, and returns the case. The simulator
// adds what only it has: virtual time and a positive speedup.
func allProtocols(t *testing.T, name string) proctest.Case {
	var c proctest.Case
	for _, a := range proctest.Apps {
		if a.Name == name {
			c = a
		}
	}
	for _, cfg := range []core.Config{
		{Protocol: core.TwoLevel}, {Protocol: core.TwoLevelSD},
		{Protocol: core.OneLevelDiff}, {Protocol: core.OneLevelWrite},
		{Protocol: core.OneLevelDiff, HomeOpt: true}, {Protocol: core.OneLevelWrite, HomeOpt: true},
	} {
		c.Run(t, engine(cfg), 2, 2)
	}
	return c
}

func TestSORSmallAllProtocols(t *testing.T) {
	c := allProtocols(t, "SOR")
	// 16x4: processor ids up to 63, the smallest cluster whose
	// directory words are wider than the paper's 6-bit fields.
	for _, k := range []core.Kind{core.TwoLevel, core.OneLevelDiff} {
		c.Run(t, engine(core.Config{Protocol: k}), 16, 4)
	}
}

func TestLUSmallAllProtocols(t *testing.T)     { allProtocols(t, "LU") }
func TestWaterSmallAllProtocols(t *testing.T)  { allProtocols(t, "Water") }
func TestTSPSmallAllProtocols(t *testing.T)    { allProtocols(t, "TSP") }
func TestGaussSmallAllProtocols(t *testing.T)  { allProtocols(t, "Gauss") }
func TestIlinkSmallAllProtocols(t *testing.T)  { allProtocols(t, "Ilink") }
func TestEm3dSmallAllProtocols(t *testing.T)   { allProtocols(t, "Em3d") }
func TestBarnesSmallAllProtocols(t *testing.T) { allProtocols(t, "Barnes") }
