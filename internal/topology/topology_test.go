package topology

import (
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in         string
		nodes, ppn int
	}{
		{"32:4", 8, 4},
		{"8:1", 8, 1},
		{"8:2", 4, 2},
		{"1:1", 1, 1},
		{"128:4", 32, 4},
		{"248:62", 4, 62},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got.Nodes != c.nodes || got.ProcsPerNode != c.ppn {
			t.Errorf("Parse(%q) = %d nodes x %d, want %d x %d",
				c.in, got.Nodes, got.ProcsPerNode, c.nodes, c.ppn)
		}
		if got.String() != c.in {
			t.Errorf("Parse(%q).String() = %q", c.in, got.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", "32", "32:", ":4", "32:4:1", "a:4", "32:b",
		"0:4", "32:0", "-32:4", "32:-4",
		"31:4", // not a multiple
		"8x4",  // wrong separator
	} {
		_, err := Parse(in)
		if err == nil {
			t.Errorf("Parse(%q) did not fail", in)
			continue
		}
		// Every malformed string gets the one shared error quoting the
		// grammar, not divergent ad-hoc messages.
		if !strings.Contains(err.Error(), "procs:procsPerNode") {
			t.Errorf("Parse(%q) error %q does not quote the grammar", in, err)
		}
	}
}

func TestProcsAndLabel(t *testing.T) {
	s := New(8, 4)
	if s.Procs() != 32 {
		t.Errorf("Procs = %d", s.Procs())
	}
	if s.String() != "32:4" {
		t.Errorf("String = %q", s.String())
	}
}
