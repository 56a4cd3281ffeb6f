package core

import (
	"fmt"
	"maps"
	"os"
	"strings"
	"sync"

	"cashmere/internal/cli"
	"cashmere/internal/trace"
)

// Protocol event tracing. The structured layer lives in internal/trace;
// a cluster records events when Config.Trace carries a tracer. The
// CASHMERE_TRACE_PAGE environment variable — a page number or a
// comma-separated list — is the zero-configuration entry point: when it
// is set and no tracer was supplied, New builds one whose live stream
// writes to stderr, as they happen, the page-timeline lines of every
// event on those pages. A value that does not parse, a page beyond the
// cluster's, and a variable shadowed by a supplied tracer are each
// reported on stderr instead of silently dropping the trace asked for.

// envTrace is the process's one reading of CASHMERE_TRACE_PAGE.
var envTrace = new(envTraceState)

type envTraceState struct {
	read     sync.Once
	pages    map[int]bool
	list     string    // the pages as -trace-pages takes them
	shadowed sync.Once // the ignored-beside-a-tracer warning
}

// tracer returns the tracer a cluster of the given shape records into:
// supplied when there is one, else the variable's live tracer, else nil.
// The variable is read, through the cli env-var registry, on first use.
func (s *envTraceState) tracer(supplied *trace.Tracer, procs, links int) *trace.Tracer {
	s.read.Do(func() {
		pages, raw, set, err := cli.TracePagesFromEnv(trace.ParsePageList)
		if set && err != nil {
			fmt.Fprintf(os.Stderr, "cashmere: ignoring CASHMERE_TRACE_PAGE=%q: %v\n", raw, err)
			return
		}
		s.pages, s.list = pages, strings.Join(strings.Fields(raw), "")
	})
	switch {
	case len(s.pages) == 0:
		return supplied
	case supplied != nil:
		s.shadowed.Do(func() {
			fmt.Fprintf(os.Stderr, "cashmere: ignoring CASHMERE_TRACE_PAGE=%s: this run already records a trace; "+
				"use cashmere-run -trace-timeline - -trace-pages %s instead\n", s.list, s.list)
		})
		return supplied
	}
	// New clamps the filter to the cluster's page count, so each
	// cluster gets its own copy.
	return trace.New(trace.Config{Procs: procs, Links: links, RingSize: 1 << 12,
		Pages: maps.Clone(s.pages), Live: os.Stderr})
}
