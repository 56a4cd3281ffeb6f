package main

import (
	"testing"
	"time"
)

// TestMPStatusWallTime holds the tcp launcher's /status to the
// metrics.CellStatus contract: a running rank's wall time grows with
// every scrape, a reaped rank's is final.
func TestMPStatusWallTime(t *testing.T) {
	start := time.Unix(1000, 0)
	ranks := []rankState{
		{state: "running"},
		{state: "done", end: start.Add(2 * time.Second)},
		{state: "failed", end: start.Add(3 * time.Second)},
	}
	first := mpStatus(start, start.Add(5*time.Second), ranks)
	second := mpStatus(start, start.Add(9*time.Second), ranks)
	for r, want := range [][2]int64{{5000, 9000}, {2000, 2000}, {3000, 3000}} {
		if got := [2]int64{first.Cells[r].WallMS, second.Cells[r].WallMS}; got != want {
			t.Errorf("rank%d (%s) wall_ms at 5 s and 9 s = %v, want %v", r, ranks[r].state, got, want)
		}
	}
	if first.Running != 1 || first.Done != 1 || first.Failed != 1 {
		t.Errorf("counts running/done/failed = %d/%d/%d, want 1/1/1", first.Running, first.Done, first.Failed)
	}
	for r, c := range first.Cells {
		if want := []string{"rank0", "rank1", "rank2"}[r]; c.Name != want || c.State != ranks[r].state {
			t.Errorf("cell %d = %s %s, want %s %s", r, c.Name, c.State, want, ranks[r].state)
		}
	}
}
