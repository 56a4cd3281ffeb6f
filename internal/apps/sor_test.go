package apps

import (
	"testing"

	"cashmere/internal/core"
)

// kindsUnderTest lists the protocols every application must pass under.
var kindsUnderTest = []core.Kind{
	core.TwoLevel, core.TwoLevelSD, core.OneLevelDiff, core.OneLevelWrite,
}

// smallConfig returns a 2x2 test topology with small pages so the tiny
// test problems still span multiple pages.
func smallConfig(k core.Kind) core.Config {
	return core.Config{
		Nodes:        2,
		ProcsPerNode: 2,
		Protocol:     k,
		PageWords:    64,
	}
}

// checkApp runs app under every protocol on the small topology,
// verifying results each time.
func checkApp(t *testing.T, mk func() App) {
	t.Helper()
	for _, k := range kindsUnderTest {
		app := mk()
		cfg := smallConfig(k)
		res, err := Run(app, cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.ExecNS <= 0 {
			t.Errorf("%v: no virtual time elapsed", k)
		}
		sp := Speedup(app, cfg, res)
		if sp <= 0 {
			t.Errorf("%v: speedup = %v", k, sp)
		}
	}
	// Home-node optimization variants of the one-level protocols.
	for _, k := range []core.Kind{core.OneLevelDiff, core.OneLevelWrite} {
		app := mk()
		cfg := smallConfig(k)
		cfg.HomeOpt = true
		if _, err := Run(app, cfg); err != nil {
			t.Fatalf("%v+homeopt: %v", k, err)
		}
	}
}

func TestSORSmallAllProtocols(t *testing.T) {
	checkApp(t, func() App { return SmallSOR() })
	// 16x4: processor ids up to 63, the smallest cluster whose
	// directory words are wider than the paper's 6-bit fields.
	for _, k := range []core.Kind{core.TwoLevel, core.OneLevelDiff} {
		cfg := smallConfig(k)
		cfg.Nodes, cfg.ProcsPerNode = 16, 4
		if _, err := Run(SmallSOR(), cfg); err != nil {
			t.Fatalf("%v at 64:4: %v", k, err)
		}
	}
}

func TestSORSequentialDeterministic(t *testing.T) {
	a := SmallSOR()
	b := SmallSOR()
	m := defaultCosts()
	if a.SeqTime(m) != b.SeqTime(m) {
		t.Error("sequential time not deterministic")
	}
	if a.SeqTime(m) <= 0 {
		t.Error("sequential time not positive")
	}
}

func TestSORSingleProcMatchesSeqPlusOverhead(t *testing.T) {
	// A single-processor parallel run must take at least the
	// sequential time (protocol overhead is non-negative).
	app := SmallSOR()
	cfg := core.Config{Nodes: 1, ProcsPerNode: 1, Protocol: core.TwoLevel, PageWords: 64}
	res, err := Run(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := app.SeqTime(defaultCosts())
	if res.ExecNS < seq {
		t.Errorf("1-proc run (%d ns) faster than sequential (%d ns)", res.ExecNS, seq)
	}
	// And within a sane overhead envelope. The test problem is tiny
	// (330 us of compute), so 72 us faults and barrier costs dominate;
	// at realistic sizes the overhead ratio is far smaller (see the
	// bench harness).
	if res.ExecNS > 20*seq {
		t.Errorf("1-proc run (%d ns) more than 20x sequential (%d ns)", res.ExecNS, seq)
	}
}

func TestSORMetadata(t *testing.T) {
	a := DefaultSOR()
	if a.Name() != "SOR" {
		t.Errorf("Name = %q", a.Name())
	}
	if a.DataSet() == "" {
		t.Error("empty DataSet")
	}
	sh := a.Shape()
	if sh.SharedWords < a.Rows*a.Cols {
		t.Errorf("SharedWords = %d < grid %d", sh.SharedWords, a.Rows*a.Cols)
	}
}
