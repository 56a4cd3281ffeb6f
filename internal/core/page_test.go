package core

import (
	"testing"

	"cashmere/internal/directory"
)

// TestDropRevokesEveryTable pins the page record's drop, the transition
// both a home migration and a former home's refetch go through: every
// local table loses the page, so no processor can reach the emptied
// slot, and only the migration's drop forgets the timestamps.
func TestDropRevokesEveryTable(t *testing.T) {
	for _, resetTS := range []bool{false, true} {
		c, err := New(testConfig(TwoLevel, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		h := c.Harness()
		h.Read(0, 0) // node 0 is page 0's home: both processors map the master
		h.Read(1, 0)
		n := c.nodes[0]
		s := &n.pages[0]
		if !s.aliased {
			t.Fatal("home node does not alias the master")
		}
		s.wnTS = 7

		s.drop(n, 0, resetTS)

		st := h.PageState(0, 0)
		if st.HasFrame || st.Aliased {
			t.Errorf("resetTS=%v: slot still holds a frame (aliased %v)", resetTS, st.Aliased)
		}
		for l, perm := range st.Perms {
			if perm != directory.Invalid {
				t.Errorf("resetTS=%v: local proc %d still maps the page %s", resetTS, l, perm)
			}
		}
		if want := map[bool]int64{false: 7, true: 0}[resetTS]; st.WnTS != want {
			t.Errorf("resetTS=%v: wnTS %d, want %d", resetTS, st.WnTS, want)
		}
		if h.Read(1, 0); !h.PageState(0, 0).HasFrame {
			t.Errorf("resetTS=%v: a read after the drop left the slot empty", resetTS)
		}
	}
}
