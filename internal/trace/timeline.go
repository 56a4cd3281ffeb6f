package trace

import (
	"fmt"
	"io"
)

// WritePageTimeline writes a chronological text dump of every recorded
// event touching the given pages, one Line each. An empty (or nil)
// pages dumps every page-bearing event.
func WritePageTimeline(w io.Writer, r *Recording, pages map[int]bool) error {
	for _, e := range r.Events {
		if e.Page < 0 || len(pages) > 0 && !pages[int(e.Page)] {
			continue
		}
		if _, err := io.WriteString(w, r.Line(e)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// Line renders e as one line of text: the timestamp under the name of
// the recording's clock, the emitting track, the page (when e has
// one), the event name, and its payload:
//
//	vt=1204133ns p1 n1 pg0 read-fault dur=92000ns
//	vt=1204133ns p1 n1 pg0 page-fetch dur=85000ns bytes=8192 home=0
//
// It is the one format events print in: the page timeline, the live
// stream of Config.Live, and the model checker's replay.
func (r *Recording) Line(e Event) string {
	track := fmt.Sprintf("p%d n%d", e.Proc, e.Node)
	if e.Proc < 0 {
		track = r.Nodes[e.Node].Label
	}
	line := fmt.Sprintf("%s=%dns %s", r.Clock, e.VT, track)
	if e.Page >= 0 {
		line += fmt.Sprintf(" pg%d", e.Page)
	}
	line += " " + e.Kind.String()
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
	return line
}
