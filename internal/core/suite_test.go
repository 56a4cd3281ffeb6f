package core_test

import (
	"fmt"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/apps/proctest"
	"cashmere/internal/core"
	"cashmere/internal/stats"
)

// The apps.Proc contract suite on the simulator. Each test runs one of
// the suite's programs at the shape and under the protocols its test
// has always used here; the engine adds what only the simulator has: a
// run must take virtual time and record faults.

var kinds = []core.Kind{core.TwoLevel, core.TwoLevelSD, core.OneLevelDiff, core.OneLevelWrite}

// engine is the suite's Engine on a simulated cluster configured as cfg.
func engine(cfg core.Config) proctest.Engine {
	return func(_ *testing.T, mk func() apps.App, nodes, ppn, pageWords int) error {
		cfg := cfg
		cfg.Nodes, cfg.ProcsPerNode, cfg.PageWords = nodes, ppn, pageWords
		res, err := apps.Run(mk(), cfg)
		switch {
		case err != nil:
			return err
		case res.ExecNS <= 0:
			return fmt.Errorf("%v: no virtual time elapsed", cfg.Protocol)
		case res.Counts[stats.ReadFaults]+res.Counts[stats.WriteFaults] == 0:
			return fmt.Errorf("%v: no faults recorded", cfg.Protocol)
		}
		return nil
	}
}

// onCore runs c at nodes×ppn under each protocol of ks, or of all four
// when ks is empty, one subtest each.
func onCore(t *testing.T, c proctest.Case, nodes, ppn int, ks ...core.Kind) {
	if len(ks) == 0 {
		ks = kinds
	}
	for _, k := range ks {
		t.Run(k.String(), func(t *testing.T) { c.Run(t, engine(core.Config{Protocol: k}), nodes, ppn) })
	}
}

// placement runs one of the suite's placement programs (its first
// writes after EndInit move homes by first touch) at nodes×ppn under
// all four protocols, with the one-level home-node optimization off and
// on.
func placement(t *testing.T, c proctest.Case, nodes, ppn int) {
	for _, homeOpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("homeopt=%v", homeOpt), func(t *testing.T) {
			for _, k := range kinds {
				t.Run(k.String(), func(t *testing.T) {
					c.Run(t, engine(core.Config{Protocol: k, HomeOpt: homeOpt}), nodes, ppn)
				})
			}
		})
	}
}

func TestSingleProcStoreLoad(t *testing.T)          { onCore(t, proctest.StoreLoad, 1, 1) }
func TestCrossNodeSharingViaBarrier(t *testing.T)   { onCore(t, proctest.CrossNode, 4, 2) }
func TestMultiWriterFalseSharingMerge(t *testing.T) { onCore(t, proctest.FalseSharing, 4, 2) }
func TestRepeatedPhases(t *testing.T)               { onCore(t, proctest.RepeatedPhases, 2, 2) }
func TestLockMigratorySharing(t *testing.T)         { onCore(t, proctest.Migratory, 4, 2) }
func TestManyLocksManyPages(t *testing.T)           { onCore(t, proctest.LockCounters, 4, 2) }
func TestFlagProducerConsumer(t *testing.T)         { onCore(t, proctest.ProducerConsumer, 4, 2) }
func TestFlagsAreReleaseAcquirePairs(t *testing.T)  { onCore(t, proctest.FlagChain, 4, 2) }
func TestInterleavedReadersAndWriters(t *testing.T) { onCore(t, proctest.RotatingWriter, 4, 2) }
func TestPageWordsVariants(t *testing.T)            { onCore(t, proctest.PageSizes, 2, 2, core.TwoLevel) }
func TestBandsPlacement(t *testing.T)               { placement(t, proctest.Bands, 2, 2) }
func TestRandomDRFInitPrograms(t *testing.T)        { placement(t, proctest.RandomDRFInit, 4, 2) }

// TestLockBasedMetaSameResults: the lock-based ablation must produce
// the same memory, only different timing.
func TestLockBasedMetaSameResults(t *testing.T) {
	proctest.FalseSharing.Run(t, engine(core.Config{Protocol: core.TwoLevel, LockBasedMeta: true}), 2, 2)
}

func TestRandomDRFPrograms(t *testing.T) {
	onCore(t, proctest.RandomDRF, 4, 4)
	t.Run("flag-rounds", func(t *testing.T) { onCore(t, proctest.RandomDRFFlags, 4, 4) })
}
