package trace

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// A Recording is one finished traced run as plain data: all that the
// exporter, the page timeline and the profiler (metrics.BuildProfile)
// read. The simulator's comes from (*Tracer).Recording, on the
// virtual-time axis; the multi-process runtime's from Merge, which puts
// the buffers of N OS processes on one wall-clock axis. Nothing
// downstream asks which: the time axis has a name, and where an event
// renders is looked up in the track table.
type Recording struct {
	// Events are the run's committed events in time order. Proc is a
	// global processor id, unique across the cluster, or -1 for an event
	// recorded outside processor context, which belongs to its Node's
	// own track (a fabric link in the simulator, a rank's frame handler
	// in the runtime). VT and Dur are nanoseconds on Clock.
	Events []Event
	// Dropped counts events lost to ring wraparound; nonzero means
	// whatever is computed from Events undercounts.
	Dropped uint64
	// Clock names the time axis: ClockVirtual or ClockWall.
	Clock string

	// Procs[i] is the track of global processor i, Nodes[n] the track
	// of events with Proc = -1 and Node = n. Every event indexes one of
	// them.
	Procs []Track
	Nodes []Track
}

// The two time axes a Recording can be on: the simulator's virtual
// time, and wall time aligned to rank 0's clock and re-based so the run
// starts at zero.
const (
	ClockVirtual = "vt"
	ClockWall    = "wt"
)

// Track says where one processor's or node's events render: the
// Perfetto process and thread, by id and by name, and the category its
// events carry.
type Track struct {
	Pid, Tid        int
	Process, Thread string
	Cat             string
	// Label names a Nodes track in the text timeline; processor tracks
	// print there as p<id> n<node>.
	Label string
}

// track returns the track e renders on.
func (r *Recording) track(e Event) *Track {
	if e.Proc >= 0 {
		return &r.Procs[e.Proc]
	}
	return &r.Nodes[e.Node]
}

// Recording returns the run recorded so far: one Perfetto process
// ("processors") with a thread per simulated processor and a second
// with a thread per fabric link (transport/simchan; the group keeps its
// historical "memchan" name so existing Perfetto queries stay valid).
// Its times are virtual, so it is as deterministic as the run. Safe to
// call while the run emits.
func (t *Tracer) Recording() *Recording {
	r := &Recording{Events: t.Events(), Dropped: t.Dropped(), Clock: ClockVirtual}
	for i := range t.procs {
		r.Procs = append(r.Procs, Track{Pid: 1, Tid: i, Process: "processors",
			Thread: "cpu " + strconv.Itoa(i), Cat: "protocol"})
	}
	for i := range t.links {
		r.Nodes = append(r.Nodes, Track{Pid: 2, Tid: i, Process: "memchan",
			Thread: "link " + strconv.Itoa(i), Cat: "memchan", Label: "link" + strconv.Itoa(i)})
	}
	return r
}

// RankTrack is what one rank of a multi-process run (internal/mprun)
// recorded, positioned on the merged timeline.
type RankTrack struct {
	// Rank is the node's rank; it names the Perfetto process.
	Rank int
	// Procs is the number of local processor rings; an event whose Proc
	// equals Procs came from the rank's frame-handler ring.
	Procs int
	// OffsetNS is added to every event timestamp to align this rank's
	// clock with the merged timeline (typically: the rank's tracer epoch
	// in rank-0 clock terms; only differences between ranks matter).
	OffsetNS int64
	// Events are the rank's committed events in emission order, VT the
	// rank-local wall-clock nanosecond stamp.
	Events []Event
	// Dropped counts the events the rank lost to ring wraparound.
	Dropped uint64
}

// Merge puts the ranks of one multi-process run on one timeline: one
// Perfetto process per rank ("rank R") with a thread per local
// processor plus a "net" thread for the frame handler. Each rank's
// clock is shifted by its offset (see transport/tcpchan.ClockOffsets),
// so spans causally ordered across ranks — a TPageReq on one and the
// TPageReply serviced on another — line up to within the estimate's
// error, about half the connection round-trip, and the whole is
// re-based to start at zero. Processors are renumbered globally in rank
// order (rank*PPN + local), and a handler event moves to Proc = -1 with
// Node = rank, the convention the simulator's link tracks use.
//
// The result is deterministic for fixed inputs: events are ordered by
// aligned timestamp, then rank, then thread, then emission order. The
// ranks come from other processes, so what they index with is checked:
// every rank 0..len-1 once, every event's Proc in 0..Procs and its Node
// its rank, or an error names the rank and the event.
func Merge(ranks []RankTrack) (*Recording, error) {
	sorted := slices.Clone(ranks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rank < sorted[j].Rank })

	r := &Recording{Clock: ClockWall}
	for i, tk := range sorted {
		if tk.Rank != i {
			return nil, fmt.Errorf("trace: merging %d ranks wants each of 0..%d once, got rank %d in place %d",
				len(sorted), len(sorted)-1, tk.Rank, i)
		}
		first, rank := len(r.Procs), strconv.Itoa(i)
		for l := 0; l < tk.Procs; l++ {
			r.Procs = append(r.Procs, Track{Pid: i + 1, Tid: l, Process: "rank " + rank,
				Thread: "proc " + strconv.Itoa(l), Cat: "mprun"})
		}
		r.Nodes = append(r.Nodes, Track{Pid: i + 1, Tid: tk.Procs, Process: "rank " + rank,
			Thread: "net", Cat: "mprun", Label: "net n" + rank})
		for seq, e := range tk.Events {
			if e.Proc < 0 || int(e.Proc) > tk.Procs || int(e.Node) != i {
				return nil, fmt.Errorf("trace: rank %d's event %d (%v) is on ring %d of node %d; the rank has rings 0..%d of node %d",
					i, seq, e.Kind, e.Proc, e.Node, tk.Procs, i)
			}
			if int(e.Proc) == tk.Procs {
				e.Proc = -1
			} else {
				e.Proc += int32(first)
			}
			e.VT += tk.OffsetNS
			r.Events = append(r.Events, e)
		}
		r.Dropped += tk.Dropped
	}
	// Stable, so emission order breaks the last tie; as unsigned, the
	// handler's -1 sorts after every processor of its rank.
	sort.SliceStable(r.Events, func(i, j int) bool {
		a, b := r.Events[i], r.Events[j]
		if a.VT != b.VT {
			return a.VT < b.VT
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return uint32(a.Proc) < uint32(b.Proc)
	})
	// Re-base so the timeline starts at zero: Perfetto renders absolute
	// unix-epoch microseconds poorly.
	if len(r.Events) > 0 {
		base := r.Events[0].VT
		for i := range r.Events {
			r.Events[i].VT -= base
		}
	}
	return r, nil
}
