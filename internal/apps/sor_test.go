package apps

import (
	"testing"

	"cashmere/internal/core"
)

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
