package bench

import (
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/policy"
)

// TestAdaptiveGaussDeterministic pins the Gauss/2L+A bistability: the
// adaptive decision gate shifts Gauss's pivot-row flag waits onto
// equal-virtual-time ties, which host scheduling once broke either
// way. The executor wakes a flag's waiters in the order they began
// waiting, so repeated adaptive runs must agree bit for bit.
func TestAdaptiveGaussDeterministic(t *testing.T) {
	var first core.Result
	for i := 0; i < 4; i++ {
		cfg := core.Config{Nodes: 4, ProcsPerNode: 4, Protocol: core.TwoLevel}
		policy.Wire(&cfg, policy.Defaults())
		res, err := apps.Run(freshApp(t, "Gauss"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if res.ExecNS != first.ExecNS || res.DataBytes != first.DataBytes {
			t.Errorf("run %d diverged: ExecNS %d / DataBytes %d vs run 0's %d / %d",
				i, res.ExecNS, res.DataBytes, first.ExecNS, first.DataBytes)
		}
	}
}
