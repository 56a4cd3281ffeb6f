package trace

import (
	"fmt"
	"io"
)

// WritePageTimeline writes a chronological text dump of every recorded
// event touching the given pages — the structured successor of the
// CASHMERE_TRACE_PAGE stderr stream, usable after the run instead of
// interleaved with it. An empty (or nil) pages dumps every page-bearing
// event.
//
// Each line carries the timestamp under the name of the recording's
// clock, the emitting track, the event name, and its payload:
//
//	vt=1204133ns p1 n1 pg0 read-fault dur=92000ns
//	vt=1204133ns p1 n1 pg0 page-fetch dur=85000ns bytes=8192 home=0
func WritePageTimeline(w io.Writer, r *Recording, pages map[int]bool) error {
	for _, e := range r.Events {
		if e.Page < 0 || len(pages) > 0 && !pages[int(e.Page)] {
			continue
		}
		track := fmt.Sprintf("p%d n%d", e.Proc, e.Node)
		if e.Proc < 0 {
			track = r.Nodes[e.Node].Label
		}
		line := fmt.Sprintf("%s=%dns %s pg%d %s", r.Clock, e.VT, track, e.Page, e.Kind)
		if e.Dur > 0 {
			line += fmt.Sprintf(" dur=%dns", e.Dur)
		}
		names := argNamesOf(e.Kind)
		if e.Arg != 0 {
			line += fmt.Sprintf(" %s=%d", names[0], e.Arg)
		}
		if e.Arg2 != 0 {
			line += fmt.Sprintf(" %s=%d", names[1], e.Arg2)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
