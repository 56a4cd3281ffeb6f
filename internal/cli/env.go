package cli

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The CASHMERE_* environment variables live here next to the flag
// registrations so cashmere-flagsgen documents them in docs/FLAGS.md
// alongside the flags, and so their parsing has exactly one
// implementation.

// EnvVar documents one environment variable a cashmere binary honors.
type EnvVar struct {
	Name  string
	Usage string
}

// EnvVars returns every CASHMERE_* environment variable, for the
// generated documentation. Keep the list sorted by name.
func EnvVars() []EnvVar {
	return []EnvVar{
		{
			Name: "CASHMERE_MP_CHILD",
			Usage: "internal: marks a cashmere-run process as rank R of an N-process " +
				`tcp-transport run, as "R:N". Set by the parent launcher; not for manual use.`,
		},
		{
			Name: "CASHMERE_TRACE_PAGE",
			Usage: "page number or comma-separated list: write to stderr, as it happens, the " +
				"-trace-timeline line of every protocol event on those pages (simulator runs " +
				"only; ignored, with a warning, by a run that already records a trace; see docs/TRACING.md).",
		},
	}
}

// TracePagesFromEnv reads CASHMERE_TRACE_PAGE. It returns ok=false
// when the variable is unset; a set-but-malformed value returns the
// raw value and an error so the caller can warn without silently
// dropping the trace the user asked for. Parsing is delegated to
// parse, which accepts the list syntax (trace.ParsePageList — not
// imported here to keep this package flag-only).
func TracePagesFromEnv(parse func(string) (map[int]bool, error)) (pages map[int]bool, raw string, ok bool, err error) {
	raw, ok = os.LookupEnv("CASHMERE_TRACE_PAGE")
	if !ok {
		return nil, "", false, nil
	}
	pages, err = parse(raw)
	return pages, raw, true, err
}

// MPChildFromEnv reads CASHMERE_MP_CHILD ("rank:nodes"). ok reports
// whether the variable is set; a set-but-malformed value is an error
// (the launcher owns this variable, so a bad value means a broken
// parent/child contract, not user input to tolerate).
func MPChildFromEnv() (rank, nodes int, ok bool, err error) {
	v, ok := os.LookupEnv("CASHMERE_MP_CHILD")
	if !ok {
		return 0, 0, false, nil
	}
	r, n, found := strings.Cut(v, ":")
	if !found {
		return 0, 0, true, fmt.Errorf(`CASHMERE_MP_CHILD=%q: want "rank:nodes"`, v)
	}
	rank, err = strconv.Atoi(r)
	if err == nil {
		nodes, err = strconv.Atoi(n)
	}
	if err != nil || rank < 0 || nodes <= 0 || rank >= nodes {
		return 0, 0, true, fmt.Errorf(`CASHMERE_MP_CHILD=%q: want "rank:nodes" with 0 <= rank < nodes`, v)
	}
	return rank, nodes, true, nil
}

// MPChildEnv formats the CASHMERE_MP_CHILD value the launcher sets for
// rank of nodes.
func MPChildEnv(rank, nodes int) string {
	return fmt.Sprintf("CASHMERE_MP_CHILD=%d:%d", rank, nodes)
}
