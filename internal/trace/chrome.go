package trace

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
)

// Chrome trace-event export. The output is the JSON-object form of the
// Chrome trace-event format ({"traceEvents": [...]}), which Perfetto
// (https://ui.perfetto.dev) loads directly. The time axis is the
// recording's clock; Perfetto processes, threads and event categories
// are the recording's track table. Spans are "X" (complete) events;
// instants are "i" events with thread scope. The export is a pure
// function of the Recording — host wall-clock stamps (Event.WT) are
// left out — so it is byte-for-byte deterministic whenever the
// recording is, which the two golden tests rely on.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// argNames gives kind-specific names to Arg/Arg2 so the Perfetto UI
// reads naturally; kinds missing here fall back to "arg"/"arg2".
var argNames = map[Kind][2]string{
	EvPageFetch:       {"bytes", "home"},
	EvTwin:            {"words", ""},
	EvDiffOut:         {"words", "span"},
	EvDiffIn:          {"words", ""},
	EvNoticeSend:      {"to", "pushed"},
	EvShootdown:       {"victim", ""},
	EvShootdownDrain:  {"writers", ""},
	EvExclBreak:       {"holder_node", "holder_proc"},
	EvLock:            {"lock", ""},
	EvUnlock:          {"lock", ""},
	EvFlagSet:         {"flag", ""},
	EvFlagWait:        {"flag", ""},
	EvDirUpdate:       {"by", ""},
	EvHomeMigrate:     {"from", "to"},
	EvLinkTransfer:    {"bytes", ""},
	EvMsgSend:         {"off", "subtype"},
	EvPolicyMode:      {"old_mode", "new_mode"},
	EvPolicyReplicate: {"nodes", ""},
	EvFlushFence:      {"pages", ""},
}

// argNamesOf returns the names of the two payload words of a k event.
func argNamesOf(k Kind) [2]string {
	names := argNames[k]
	if names[0] == "" {
		names[0] = "arg"
	}
	if names[1] == "" {
		names[1] = "arg2"
	}
	return names
}

// eventArgs builds e's kind-specific args map, or nil when the event
// carries nothing worth rendering.
func eventArgs(e Event) map[string]any {
	args := make(map[string]any)
	if e.Page >= 0 {
		args["page"] = e.Page
	}
	names := argNamesOf(e.Kind)
	if e.Arg != 0 {
		args[names[0]] = e.Arg
	}
	if e.Arg2 != 0 {
		args[names[1]] = e.Arg2
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// WriteChrome writes the recording as Chrome trace-event JSON.
func WriteChrome(w io.Writer, r *Recording) error {
	file := chromeFile{DisplayTimeUnit: "ns"}

	// Metadata first: every track in (pid, tid) order, each process
	// named ahead of its first thread.
	tracks := append(slices.Clone(r.Procs), r.Nodes...)
	sort.SliceStable(tracks, func(i, j int) bool {
		if tracks[i].Pid != tracks[j].Pid {
			return tracks[i].Pid < tracks[j].Pid
		}
		return tracks[i].Tid < tracks[j].Tid
	})
	meta := func(what string, pid, tid int, name string) {
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: what, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
	}
	for i, tk := range tracks {
		if i == 0 || tk.Pid != tracks[i-1].Pid {
			meta("process_name", tk.Pid, 0, tk.Process)
		}
		meta("thread_name", tk.Pid, tk.Tid, tk.Thread)
	}

	for _, e := range r.Events {
		tk := r.track(e)
		ce := chromeEvent{
			Name: e.Kind.String(),
			Cat:  tk.Cat,
			Ts:   float64(e.VT) / 1e3, // trace-event ts is microseconds
			Pid:  tk.Pid,
			Tid:  tk.Tid,
			Args: eventArgs(e),
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			d := float64(e.Dur) / 1e3
			ce.Dur = &d
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		file.TraceEvents = append(file.TraceEvents, ce)
	}

	buf, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
