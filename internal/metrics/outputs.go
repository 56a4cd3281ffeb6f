package metrics

import (
	"fmt"
	"io"
	"os"

	"cashmere/internal/trace"
)

// TraceOutputs is what a command's tracing flags ask for: up to three
// renderings of one traced run, written the same way by both commands
// for both engines. A file name of "" means not asked for and "-" means
// stdout.
type TraceOutputs struct {
	Chrome       string       // -trace: Chrome/Perfetto trace-event JSON
	Timeline     string       // -trace-timeline: per-page text timeline
	Profile      string       // -profile: hot-page / hot-lock report
	Pages        map[int]bool // -trace-pages: the timeline's pages (empty: all)
	ProfileTitle string       // heads the profile report when set
}

// NewTraceOutputs takes the flags' values as given (cashmere-bench has
// no timeline or page flag, cashmere-run no title) and parses pages; a run
// nothing asks to trace does not read -trace-pages at all.
func NewTraceOutputs(chrome, timeline, profile, pages, title string) (t TraceOutputs, err error) {
	t = TraceOutputs{Chrome: chrome, Timeline: timeline, Profile: profile, ProfileTitle: title}
	if t.Wanted() && pages != "" {
		if t.Pages, err = trace.ParsePageList(pages); err != nil {
			err = fmt.Errorf("-trace-pages: %w", err)
		}
	}
	return t, err
}

// Wanted reports whether any output is asked for: whether the run needs
// a tracer.
func (t TraceOutputs) Wanted() bool {
	return t.Chrome != "" || t.Timeline != "" || t.Profile != ""
}

// Write renders the finished run into every file asked for: trace, then
// timeline, then profile. Either engine's recording will do.
func (t TraceOutputs) Write(rec *trace.Recording) error {
	err := writeTo(t.Chrome, func(w io.Writer) error { return trace.WriteChrome(w, rec) })
	if err == nil {
		err = writeTo(t.Timeline, func(w io.Writer) error { return trace.WritePageTimeline(w, rec, t.Pages) })
	}
	if err == nil {
		err = writeTo(t.Profile, func(w io.Writer) error {
			if t.ProfileTitle != "" {
				fmt.Fprintf(w, "%s\n\n", t.ProfileTitle)
			}
			return BuildProfile(rec, 20).WriteText(w)
		})
	}
	return err
}

// writeTo runs fn on the named file: not at all for "", on stdout for
// "-".
func writeTo(path string, fn func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
