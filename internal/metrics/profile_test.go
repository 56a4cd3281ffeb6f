package metrics_test

import (
	"strings"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/metrics"
	"cashmere/internal/trace"
)

// emit writes one event on proc's ring with the given virtual time.
func emit(t *trace.Tracer, proc int, e trace.Event) {
	e.Proc = int32(proc)
	t.EmitProc(proc, e)
}

func TestProfileClassification(t *testing.T) {
	tr := trace.New(trace.Config{Procs: 4, Links: 2})

	// Page 0: read-only — two readers, no writer.
	emit(tr, 0, trace.Event{Kind: trace.EvReadFault, Page: 0, VT: 10, Dur: 100})
	emit(tr, 1, trace.Event{Kind: trace.EvReadFault, Page: 0, VT: 20, Dur: 100})

	// Page 1: single-writer — proc 2 writes, nobody else reads.
	emit(tr, 2, trace.Event{Kind: trace.EvWriteFault, Page: 1, VT: 30, Dur: 50})

	// Page 2: producer-consumer — proc 0 writes, procs 1 and 3 read.
	emit(tr, 0, trace.Event{Kind: trace.EvWriteFault, Page: 2, VT: 40, Dur: 300})
	emit(tr, 1, trace.Event{Kind: trace.EvReadFault, Page: 2, VT: 50, Dur: 200})
	emit(tr, 3, trace.Event{Kind: trace.EvReadFault, Page: 2, VT: 60, Dur: 200})

	// Page 3: false-sharing — procs 0 and 1 write disjoint word ranges.
	emit(tr, 0, trace.Event{Kind: trace.EvWriteFault, Page: 3, VT: 70, Dur: 400})
	emit(tr, 1, trace.Event{Kind: trace.EvWriteFault, Page: 3, VT: 80, Dur: 400})
	emit(tr, 0, trace.Event{Kind: trace.EvDiffOut, Page: 3, VT: 90, Arg: 4, Arg2: trace.PackWordSpan(0, 7)})
	emit(tr, 1, trace.Event{Kind: trace.EvDiffOut, Page: 3, VT: 95, Arg: 4, Arg2: trace.PackWordSpan(512, 519)})

	// Page 4: migratory — write faults strictly alternate 0,1,0,1 and
	// their flushed spans overlap.
	for i := 0; i < 4; i++ {
		emit(tr, i%2, trace.Event{Kind: trace.EvWriteFault, Page: 4, VT: int64(100 + 10*i), Dur: 150})
		emit(tr, i%2, trace.Event{Kind: trace.EvDiffOut, Page: 4, VT: int64(105 + 10*i), Arg: 2, Arg2: trace.PackWordSpan(0, 1)})
	}

	// Page 5: write-shared — two writers, overlapping spans, repeated
	// faults by the same proc (low alternation).
	for i := 0; i < 4; i++ {
		emit(tr, 0, trace.Event{Kind: trace.EvWriteFault, Page: 5, VT: int64(200 + 10*i), Dur: 100})
	}
	for i := 0; i < 4; i++ {
		emit(tr, 1, trace.Event{Kind: trace.EvWriteFault, Page: 5, VT: int64(240 + 10*i), Dur: 100})
	}
	emit(tr, 0, trace.Event{Kind: trace.EvDiffOut, Page: 5, VT: 300, Arg: 3, Arg2: trace.PackWordSpan(0, 9)})
	emit(tr, 1, trace.Event{Kind: trace.EvDiffOut, Page: 5, VT: 310, Arg: 3, Arg2: trace.PackWordSpan(5, 12)})

	// Lock, flag, and barrier latency.
	emit(tr, 0, trace.Event{Kind: trace.EvLock, Page: -1, VT: 400, Dur: 1000, Arg: 3})
	emit(tr, 1, trace.Event{Kind: trace.EvLock, Page: -1, VT: 410, Dur: 3000, Arg: 3})
	emit(tr, 2, trace.Event{Kind: trace.EvFlagWait, Page: -1, VT: 420, Dur: 500, Arg: 1})
	emit(tr, 0, trace.Event{Kind: trace.EvBarrier, Page: -1, VT: 430, Dur: 2000})
	emit(tr, 1, trace.Event{Kind: trace.EvBarrier, Page: -1, VT: 430, Dur: 4000})

	p := metrics.BuildProfile(tr.Recording(), 0)

	want := map[int]string{
		0: metrics.PatternReadOnly,
		1: metrics.PatternSingleWriter,
		2: metrics.PatternProducerConsumer,
		3: metrics.PatternFalseSharing,
		4: metrics.PatternMigratory,
		5: metrics.PatternWriteShared,
	}
	got := map[int]string{}
	for _, pg := range p.Pages {
		got[pg.Page] = pg.Pattern
	}
	for page, pattern := range want {
		if got[page] != pattern {
			t.Errorf("page %d: pattern %q, want %q", page, got[page], pattern)
		}
	}
	if p.TotalPages != 6 {
		t.Errorf("TotalPages = %d, want 6", p.TotalPages)
	}

	// Ranking: page 5 (800ns of write faults) must come before page 1
	// (50ns).
	rank := map[int]int{}
	for i, pg := range p.Pages {
		rank[pg.Page] = i
	}
	if rank[5] > rank[1] {
		t.Errorf("page 5 (hot) ranked below page 1 (cold): %v", rank)
	}

	if len(p.Locks) != 2 {
		t.Fatalf("lock profiles: %+v", p.Locks)
	}
	if l := p.Locks[0]; l.Kind != "lock" || l.Index != 3 || l.Acquires != 2 || l.TotalNS != 4000 || l.MaxNS != 3000 || l.MeanNS() != 2000 {
		t.Errorf("hottest lock: %+v", l)
	}
	if l := p.Locks[1]; l.Kind != "flag" || l.Index != 1 || l.Acquires != 1 {
		t.Errorf("flag profile: %+v", l)
	}
	if p.Barrier.Episodes != 2 || p.Barrier.MaxNS != 4000 || p.Barrier.MeanNS() != 3000 {
		t.Errorf("barrier profile: %+v", p.Barrier)
	}

	var b strings.Builder
	if err := p.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hot pages", "false-sharing", "hot locks/flags", "barriers: 2 episodes"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report missing %q:\n%s", want, b.String())
		}
	}
}

func TestProfileTopNCut(t *testing.T) {
	tr := trace.New(trace.Config{Procs: 1, Links: 1})
	for page := 0; page < 30; page++ {
		emit(tr, 0, trace.Event{Kind: trace.EvReadFault, Page: int32(page), VT: int64(page), Dur: int64(1 + page)})
	}
	p := metrics.BuildProfile(tr.Recording(), 5)
	if len(p.Pages) != 5 || p.TotalPages != 30 {
		t.Fatalf("topN cut: %d pages listed of %d", len(p.Pages), p.TotalPages)
	}
	if p.Pages[0].Page != 29 {
		t.Errorf("hottest page should rank first, got %d", p.Pages[0].Page)
	}
}

// TestProfileRealRuns builds profiles from real traced SOR and TSP
// runs: pages must rank with patterns assigned and protocol time
// attributed (the acceptance criterion for -profile).
func TestProfileRealRuns(t *testing.T) {
	for _, app := range []apps.App{apps.SmallSOR(), apps.SmallTSP()} {
		t.Run(app.Name(), func(t *testing.T) {
			tr := trace.New(trace.Config{Procs: 4, Links: 2})
			cfg := core.Config{
				Nodes:        2,
				ProcsPerNode: 2,
				Protocol:     core.TwoLevel,
				Trace:        tr,
			}
			if _, err := apps.Run(app, cfg); err != nil {
				t.Fatal(err)
			}
			p := metrics.BuildProfile(tr.Recording(), 10)
			if len(p.Pages) == 0 {
				t.Fatal("no hot pages attributed")
			}
			if p.Pages[0].ProtocolNS <= 0 {
				t.Errorf("hottest page has no protocol time: %+v", p.Pages[0])
			}
			for _, pg := range p.Pages {
				if pg.Pattern == "" {
					t.Errorf("page %d has no sharing pattern", pg.Page)
				}
			}
			for i := 1; i < len(p.Pages); i++ {
				if p.Pages[i].ProtocolNS > p.Pages[i-1].ProtocolNS {
					t.Errorf("pages not ranked by protocol time at %d", i)
				}
			}
			if app.Name() == "TSP" && p.Barrier.Episodes == 0 && len(p.Locks) == 0 {
				t.Error("TSP run attributed no synchronization at all")
			}
		})
	}
}
