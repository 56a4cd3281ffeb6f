package modelcheck

import (
	"encoding/json"
	"fmt"
	"io"

	"cashmere/internal/trace"
)

// Counterexample is a replayable invariant violation: the model
// options, the schedule that reaches the violation, and the violation
// itself. The JSON encoding is the interchange format written by the
// checker and read back by `cashmere-run -replay`.
type Counterexample struct {
	// Options reproduces the model (always fully populated, so a
	// future default change cannot reinterpret an old file).
	Options Options `json:"options"`
	// Seed is the fuzzer seed that generated the schedule (0 for
	// exhaustive or scripted schedules).
	Seed int64 `json:"seed,omitempty"`
	// Schedule is the transition sequence; its last op triggers the
	// violation.
	Schedule []Op `json:"schedule"`
	// Violation is the invariant failure the schedule reproduces.
	Violation Violation `json:"violation"`
}

// Encode renders the counterexample as indented JSON.
func (cx *Counterexample) Encode() ([]byte, error) {
	return json.MarshalIndent(cx, "", "  ")
}

// Decode parses a counterexample from its JSON encoding.
func Decode(data []byte) (*Counterexample, error) {
	var cx Counterexample
	if err := json.Unmarshal(data, &cx); err != nil {
		return nil, fmt.Errorf("modelcheck: bad counterexample: %w", err)
	}
	if len(cx.Schedule) == 0 {
		return nil, fmt.Errorf("modelcheck: counterexample has no schedule")
	}
	return &cx, nil
}

// Minimize greedily shrinks the counterexample's schedule: it removes
// one op at a time, keeping each removal after which a violation of the
// same invariant still fires, until no single removal survives. The
// result is a new counterexample whose violation is the re-verified
// one; cx itself is untouched. A counterexample that no longer
// reproduces at all (checker bug or nondeterminism) is returned as-is.
func Minimize(cx *Counterexample) *Counterexample {
	reproduce := func(schedule []Op) *Violation {
		v, err := RunSchedule(cx.Options, schedule)
		if err != nil || v == nil || v.Invariant != cx.Violation.Invariant {
			return nil
		}
		return v
	}
	best := append([]Op(nil), cx.Schedule...)
	viol := reproduce(best)
	if viol == nil {
		return cx
	}
	for {
		shrunk := false
		for i := 0; i < len(best); i++ {
			candidate := append(append([]Op(nil), best[:i]...), best[i+1:]...)
			if v := reproduce(candidate); v != nil {
				best, viol = candidate, v
				shrunk = true
				break
			}
		}
		if !shrunk {
			break
		}
	}
	return &Counterexample{
		Options:   cx.Options,
		Seed:      cx.Seed,
		Schedule:  best,
		Violation: *viol,
	}
}

// Replay re-executes the counterexample's schedule deterministically
// against a fresh cluster with protocol-event tracing attached, writing
// a step-by-step account and the recorded protocol events, one
// trace.Recording.Line each, to w. It
// returns the violation the replay reproduced, or nil (with a
// divergence note on w) if the schedule no longer violates anything.
func Replay(cx *Counterexample, w io.Writer) (*Violation, error) {
	opts := cx.Options.withDefaults()
	tracer := trace.New(trace.Config{
		Procs: opts.Nodes * opts.ProcsPerNode,
		Links: opts.Nodes,
	})
	r, err := newRun(opts, tracer)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "replay: %s\n", r.h.String())
	if opts.Defect != "" {
		fmt.Fprintf(w, "defect: %s (re-introduced)\n", opts.Defect)
	}
	fmt.Fprintf(w, "expect: %s\n\n", &cx.Violation)

	var got *Violation
	for i, op := range cx.Schedule {
		v := r.apply(op)
		fmt.Fprintf(w, "step %2d  %-24s clk(p%d)=%d\n", i, op.String(), op.Proc, r.h.Clock(op.Proc))
		if v != nil {
			got = v
			fmt.Fprintf(w, "\nVIOLATION %s\n", v)
			break
		}
	}
	if got == nil {
		fmt.Fprintf(w, "\nDIVERGENCE: schedule ran clean; the violation did not reproduce\n")
	}

	fmt.Fprintf(w, "\nprotocol events:\n")
	rec := tracer.Recording()
	for _, e := range rec.Events {
		fmt.Fprintln(w, rec.Line(e))
	}
	return got, nil
}
