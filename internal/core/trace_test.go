package core

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cashmere/internal/trace"
)

// withEnvTrace runs f with CASHMERE_TRACE_PAGE set to pages, as a fresh
// process would read it, and returns what f left on stderr.
func withEnvTrace(t *testing.T, pages string, f func()) string {
	t.Helper()
	t.Setenv("CASHMERE_TRACE_PAGE", pages)
	saved := envTrace
	envTrace = new(envTraceState)
	defer func() { envTrace = saved }()

	// A file, not a pipe: nothing drains a pipe while f runs.
	path := filepath.Join(t.TempDir(), "stderr")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func(stderr *os.File) { os.Stderr = stderr }(os.Stderr)
		os.Stderr = out
		f()
	}()
	out.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// TestParseTracePages: a CASHMERE_TRACE_PAGE value that parses builds a
// live tracer filtered to exactly those pages; one that does not builds
// none and says so on stderr. The list syntax itself is
// trace.TestParsePageList's; this checks only the path New takes.
func TestParseTracePages(t *testing.T) {
	good := []struct {
		in   string
		want []int
	}{
		{"7,12,40", []int{7, 12, 40}},
		{" 7 , 12 ", []int{7, 12}},
	}
	for _, c := range good {
		var tr *trace.Tracer
		stderr := withEnvTrace(t, c.in, func() { tr = envTrace.tracer(nil, 4, 2) })
		if tr == nil {
			t.Errorf("CASHMERE_TRACE_PAGE=%q built no tracer (stderr %q)", c.in, stderr)
			continue
		}
		if stderr != "" {
			t.Errorf("CASHMERE_TRACE_PAGE=%q: stderr %q, want none", c.in, stderr)
		}
		for _, p := range c.want {
			if !tr.TracesPage(p) {
				t.Errorf("CASHMERE_TRACE_PAGE=%q: tracer misses page %d", c.in, p)
			}
		}
		if tr.TracesPage(1) {
			t.Errorf("CASHMERE_TRACE_PAGE=%q: tracer traces unlisted page 1", c.in)
		}
	}

	var tr *trace.Tracer
	stderr := withEnvTrace(t, "7;12", func() { tr = envTrace.tracer(nil, 4, 2) })
	if tr != nil {
		t.Error("CASHMERE_TRACE_PAGE=\"7;12\" built a tracer, want none")
	}
	if !strings.HasPrefix(stderr, "cashmere: ignoring CASHMERE_TRACE_PAGE=") {
		t.Errorf("CASHMERE_TRACE_PAGE=\"7;12\": stderr %q, want the ignoring warning", stderr)
	}
}

// TestEnvTraceStreamsTimelineLines: with CASHMERE_TRACE_PAGE set and no
// tracer supplied, New builds one, and every line it writes to stderr
// is a page-timeline line of a listed page.
func TestEnvTraceStreamsTimelineLines(t *testing.T) {
	grammar := regexp.MustCompile(`^vt=\d+ns (p\d+ n\d+|link\d+) pg0 [a-z-]+( [a-z0-9_]+=-?\d+(ns)?)*$`)
	var c *Cluster
	stderr := withEnvTrace(t, "0", func() {
		var err error
		if c, err = New(testConfig(TwoLevel, 2, 2)); err != nil {
			t.Fatal(err)
		}
		c.Run(func(p *Proc) {
			p.Store(p.ID(), 1)
			p.Barrier()
			p.Load((p.ID() + 1) % 4)
		})
	})
	if c.Tracer() == nil {
		t.Fatal("CASHMERE_TRACE_PAGE=0 built no tracer")
	}
	lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stderr has %d lines for page 0:\n%s", len(lines), stderr)
	}
	for _, line := range lines {
		if !grammar.MatchString(line) {
			t.Errorf("stderr line %q is not a page-0 timeline line", line)
		}
	}
}

// TestEnvTraceBesideSuppliedTracerWarnsOnce: a run that already has a
// tracer keeps it and says so about CASHMERE_TRACE_PAGE in one stderr
// line per process, naming the flags that stream the same lines.
func TestEnvTraceBesideSuppliedTracerWarnsOnce(t *testing.T) {
	stderr := withEnvTrace(t, "3, 0", func() {
		for i := 0; i < 2; i++ {
			cfg := testConfig(TwoLevel, 2, 2)
			tr := trace.New(trace.Config{Procs: 4, Links: 2})
			cfg.Trace = tr
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.Tracer() != tr {
				t.Error("cluster did not keep the supplied tracer")
			}
			c.Run(func(p *Proc) { p.Store(p.ID(), 1) })
		}
	})
	want := "cashmere: ignoring CASHMERE_TRACE_PAGE=3,0: this run already records a trace; " +
		"use cashmere-run -trace-timeline - -trace-pages 3,0 instead\n"
	if stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}
}

// TestNewClampsTracedPages: page numbers beyond the cluster's page
// count are removed from the tracer's filter (with a stderr warning)
// instead of silently never matching.
func TestNewClampsTracedPages(t *testing.T) {
	cfg := testConfig(TwoLevel, 2, 2)
	pages := cfg.SharedWords / cfg.PageWords
	tr := trace.New(trace.Config{
		Procs: cfg.Nodes * cfg.ProcsPerNode,
		Links: cfg.Nodes,
		Pages: map[int]bool{0: true, pages - 1: true, pages: true, pages + 7: true},
	})
	cfg.Trace = tr
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tracer() != tr {
		t.Fatal("cluster did not adopt the supplied tracer")
	}
	if !tr.TracesPage(0) || !tr.TracesPage(pages-1) {
		t.Error("in-range pages dropped from the filter")
	}
	if tr.TracesPage(pages) || tr.TracesPage(pages+7) {
		t.Error("out-of-range pages survived New")
	}
}

// TestNewRejectsUndersizedTracer: a tracer with too few rings for the
// cluster is a configuration error, not a silent partial trace.
func TestNewRejectsUndersizedTracer(t *testing.T) {
	cfg := testConfig(TwoLevel, 2, 2)
	cfg.Trace = trace.New(trace.Config{Procs: 1, Links: 2})
	if _, err := New(cfg); err == nil {
		t.Error("tracer with 1 proc ring accepted for a 4-proc cluster")
	}
	cfg.Trace = trace.New(trace.Config{Procs: 4, Links: 1})
	if _, err := New(cfg); err == nil {
		t.Error("tracer with 1 link ring accepted for a 2-node cluster")
	}
}
