package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCheckEngine holds cashmere-run's engine switch to its two values
// and to rejecting, by name, a flag the selected engine would ignore.
func TestCheckEngine(t *testing.T) {
	type tc struct {
		name string
		args []string
		want []string // substrings of the error; nil means accepted
	}
	both := []string{`"sim"`, `"tcp"`}
	cases := []tc{
		{"defaults", nil, nil},
		{"sim", []string{"-transport", "sim"}, nil},
		{"tcp", []string{"-transport", "tcp"}, nil},
		{"shm", []string{"-transport", "shm"}, both},
		{"empty", []string{"-transport", ""}, both},
		{"bogus", []string{"-transport", "bogus"}, both},
		// The flags of the two CI tcp smokes.
		{"tcp smoke", []string{"-app", "SOR", "-quick", "-transport", "tcp", "-nodes", "2", "-ppn", "2"}, nil},
		{"tcp observed", []string{"-transport", "tcp", "-trace", "t.json", "-http", ":0", "-mp-stats-interval", "50ms"}, nil},
		// A traced run is one recording whichever engine made it.
		{"tcp profiled", []string{"-transport", "tcp", "-profile", "-", "-trace-timeline", "-", "-trace-pages", "0"}, nil},
	}
	// Every flag, set explicitly to its own default (still set), with
	// each engine: a table entry is refused by the other engine, by
	// name, and everything else is accepted by both. A table entry that
	// is not a registered flag has no default to look up.
	ref := flag.NewFlagSet("", flag.ContinueOnError)
	new(RunOptions).Register(ref)
	for name := range runEngineFlags {
		if ref.Lookup(name) == nil {
			t.Fatalf("runEngineFlags names -%s, which is not a flag", name)
		}
	}
	ref.VisitAll(func(f *flag.Flag) {
		if f.Name == "transport" {
			return
		}
		for _, engine := range []string{EngineSim, EngineTCP} {
			c := tc{f.Name + " with " + engine, []string{"-transport", engine, "-" + f.Name + "=" + f.DefValue}, nil}
			if only, ok := runEngineFlags[f.Name]; ok && only != engine {
				c.want = []string{"-" + f.Name + " "}
			}
			cases = append(cases, c)
		}
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var o RunOptions
			fs := flag.NewFlagSet("cashmere-run", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o.Register(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatalf("parse %v: %v", c.args, err)
			}
			err := o.CheckEngine(fs)
			if c.want == nil {
				if err != nil {
					t.Fatalf("%v rejected: %v", c.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("%v accepted, want an error naming %v", c.args, c.want)
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%v: error %q does not name %s", c.args, err, w)
				}
			}
		})
	}
}
