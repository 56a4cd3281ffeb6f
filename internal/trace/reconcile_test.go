package trace_test

import (
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/stats"
	"cashmere/internal/trace"
)

// TestEventsReconcileWithStats: the event stream is a complete record
// of the protocol actions the statistics count. For every protocol and
// every small application at 4:2, each event kind below occurs in one
// run's recording exactly as often as its stats counter says — in
// particular both ways into exclusive mode (a two-level write fault, a
// one-level release) emit excl-enter, so entries plus breaks are the
// Table 3 exclusive transitions. The counts come from one run, whatever
// the application's verification says of it, so a lost write cannot
// hide a gap in the schema.
func TestEventsReconcileWithStats(t *testing.T) {
	pairs := []struct {
		kinds   []trace.Kind
		counter stats.Counter
	}{
		{[]trace.Kind{trace.EvExclEnter, trace.EvExclBreak}, stats.ExclTransitions},
		{[]trace.Kind{trace.EvReadFault}, stats.ReadFaults},
		{[]trace.Kind{trace.EvWriteFault}, stats.WriteFaults},
		{[]trace.Kind{trace.EvPageFetch}, stats.PageTransfers},
		{[]trace.Kind{trace.EvTwin}, stats.TwinCreations},
		{[]trace.Kind{trace.EvDiffIn}, stats.IncomingDiffs},
		{[]trace.Kind{trace.EvNoticeSend}, stats.WriteNotices},
		{[]trace.Kind{trace.EvDirUpdate}, stats.DirectoryUpdates},
		{[]trace.Kind{trace.EvShootdown}, stats.Shootdowns},
		{[]trace.Kind{trace.EvHomeMigrate}, stats.HomeMigrations},
		{[]trace.Kind{trace.EvExclBreak}, stats.ExplicitRequests},
	}
	for _, k := range []core.Kind{core.TwoLevel, core.TwoLevelSD, core.OneLevelDiff, core.OneLevelWrite} {
		for _, app := range apps.Small() {
			t.Run(app.Name()+"/"+k.String(), func(t *testing.T) {
				tr := trace.New(trace.Config{Procs: 4, Links: 2, RingSize: 1 << 16})
				res, _ := apps.Run(app, core.Config{Nodes: 2, ProcsPerNode: 2, Protocol: k, Trace: tr})
				rec := tr.Recording()
				if rec.Dropped != 0 {
					t.Fatalf("the recording dropped %d events", rec.Dropped)
				}
				var events [trace.NumKinds]int64
				for _, e := range rec.Events {
					events[e.Kind]++
				}
				for _, p := range pairs {
					var n int64
					for _, kind := range p.kinds {
						n += events[kind]
					}
					if want := res.Counts[p.counter]; n != want {
						t.Errorf("%v events: %d, %v: %d", p.kinds, n, p.counter, want)
					}
				}
			})
		}
	}
}
