package bench

import (
	"reflect"
	"strings"
	"testing"

	"cashmere/internal/cli"
	"cashmere/internal/topology"
)

// TestScalingTopology checks -scaling's parse: the endpoint takes the
// shared topology grammar, the sweep doubles the node count up to it,
// and malformed input carries the grammar message.
func TestScalingTopology(t *testing.T) {
	secs, err := Sections(cli.BenchOptions{Scaling: "32:4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 {
		t.Fatalf("-scaling alone selects %d sections, want 1", len(secs))
	}
	var labels []string
	for _, topo := range secs[0].Topos {
		labels = append(labels, topo.String())
	}
	if want := []string{"4:4", "8:4", "16:4", "32:4"}; !reflect.DeepEqual(labels, want) {
		t.Errorf("sweep topologies = %v, want %v", labels, want)
	}
	if _, err := Sections(cli.BenchOptions{Scaling: "8x4"}); err == nil ||
		!strings.Contains(err.Error(), "procs:procsPerNode") {
		t.Errorf("-scaling 8x4 error %v does not quote the grammar", err)
	}
}

// TestParseCell checks -trace-cell's parse: a cell the plan runs comes
// back in canonical form, malformed input quotes the grammar, and a
// well-formed cell the plan does not run — a topology outside it, or a
// variant in the wrong case — is refused naming the cell.
func TestParseCell(t *testing.T) {
	plan := Plan(Figure7)
	label, err := ParseCell("SOR/2L/32:4", plan)
	if err != nil {
		t.Fatal(err)
	}
	if label != "SOR/2L/32:4" {
		t.Errorf("ParseCell = %q", label)
	}
	for _, in := range []string{"", "SOR", "SOR/2L", "SOR/2L/8x4", "//32:4", "SOR/2L/32:4/extra"} {
		if _, err := ParseCell(in, plan); err == nil {
			t.Errorf("ParseCell(%q) did not fail", in)
		} else if !strings.Contains(err.Error(), "procs:procsPerNode") {
			t.Errorf("ParseCell(%q) error %q does not quote the grammar", in, err)
		}
	}
	for _, in := range []string{"SOR/2L/8:8", "SOR/2l/32:4"} {
		if _, err := ParseCell(in, plan); err == nil || !strings.Contains(err.Error(), in+" is not run") {
			t.Errorf("ParseCell(%q) error %v, want a cell outside the plan", in, err)
		}
	}
}

func TestScalingSeries(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{8, []int{1, 2, 4, 8}},
		{32, []int{1, 2, 4, 8, 16, 32}},
		{12, []int{1, 2, 4, 8, 12}}, // non-power-of-two endpoint kept
	}
	for _, c := range cases {
		if got := ScalingSeries(c.max); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ScalingSeries(%d) = %v, want %v", c.max, got, c.want)
		}
	}
}

func TestScalingSweepSmoke(t *testing.T) {
	// A tiny sweep (1-4 nodes at 2 procs/node, quick sizes) must render
	// every cell without failures, including a beyond-paper row once the
	// endpoint exceeds 8 nodes elsewhere; here it validates the renderer
	// end to end.
	sec := Scaling(topology.New(4, 2))
	rf := NewSuite(true).Run(Plan(sec))
	var buf strings.Builder
	if err := sec.Render(&buf, rf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Scaling sweep", "2:2", "4:2", "8:2", "SOR"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("sweep contains failed cells:\n%s", out)
	}
	if fails := rf.Failed(); len(fails) > 0 {
		t.Errorf("failed cells: %v", fails)
	}
}
