package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"cashmere/internal/trace"
	"cashmere/internal/transport"
)

// Multi-process observability: the report a child rank ships to the
// cashmere-run launcher over the stdio rendezvous, the clock-aligned
// merge of per-rank trace buffers, and the Prometheus families the
// parent serves for the whole cluster.
//
// The collection protocol is one line of JSON (EncodeMPReport /
// DecodeMPReport) on the child's stdout, tagged by the launcher so it
// never collides with application output. Periodic reports carry
// frame-counter snapshots only; the final report additionally carries
// the rank's trace buffer, its tracer epoch, and its clock-offset
// estimates so the parent can merge all ranks onto one timeline.

// MPReport is one rank's observability snapshot.
type MPReport struct {
	Rank  int    `json:"rank"`
	Nodes int    `json:"nodes"`
	PPN   int    `json:"ppn"`
	App   string `json:"app,omitempty"`
	// Final marks the run-exit report, the one carrying the trace
	// buffer; earlier periodic reports are monitoring-grade.
	Final bool `json:"final,omitempty"`

	// EpochUnixNS is the rank's tracer start in its own wall clock
	// (unix nanoseconds); event VT stamps are relative to it.
	EpochUnixNS int64 `json:"epoch_unix_ns,omitempty"`
	// OffsetsNS[j] estimates rank j's clock minus this rank's clock,
	// measured during the transport hello exchange (zero at self, and
	// everywhere for backends without clock estimation).
	OffsetsNS []int64 `json:"offsets_ns,omitempty"`

	// Frames is the transport seam's traffic snapshot.
	Frames *transport.MsgSnapshot `json:"frames,omitempty"`

	// TraceEvents is the rank's committed event buffer (final reports
	// only); TraceDropped counts events lost to ring wraparound.
	TraceEvents  []trace.Event `json:"trace_events,omitempty"`
	TraceDropped uint64        `json:"trace_dropped,omitempty"`
}

// EncodeMPReport renders rep as a single line of JSON (no interior
// newlines), ready to ship over the stdio rendezvous.
func EncodeMPReport(rep MPReport) (string, error) {
	buf, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// DecodeMPReport parses a line produced by EncodeMPReport.
func DecodeMPReport(line string) (MPReport, error) {
	var rep MPReport
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return MPReport{}, fmt.Errorf("metrics: bad mp report: %w", err)
	}
	return rep, nil
}

// MPTracks converts the final per-rank reports of one run into the
// rank tracks trace.Merge takes, aligning every rank's clock
// to rank 0's using rank 0's offset estimates: an event at rank-local
// wall time Epoch_r + VT lands on the merged timeline at
// Epoch_r + VT − offset0[r] (offset0[r] ≈ rank r's clock minus rank
// 0's). reports may arrive in any order; every rank 0..Nodes-1 must be
// present exactly once and final, or MPTracks reports which are
// missing rather than merging a partial timeline.
func MPTracks(reports []MPReport) ([]trace.RankTrack, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("metrics: no rank reports to merge")
	}
	nodes := reports[0].Nodes
	byRank := make(map[int]MPReport, len(reports))
	for _, rep := range reports {
		if rep.Nodes != nodes {
			return nil, fmt.Errorf("metrics: rank %d says %d nodes, rank %d says %d",
				reports[0].Rank, nodes, rep.Rank, rep.Nodes)
		}
		if rep.Rank < 0 || rep.Rank >= nodes {
			return nil, fmt.Errorf("metrics: rank %d outside 0..%d", rep.Rank, nodes-1)
		}
		if _, dup := byRank[rep.Rank]; dup {
			return nil, fmt.Errorf("metrics: duplicate report for rank %d", rep.Rank)
		}
		byRank[rep.Rank] = rep
	}
	var missing []int
	for r := 0; r < nodes; r++ {
		if rep, ok := byRank[r]; !ok || !rep.Final {
			missing = append(missing, r)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics: missing final trace report from rank(s) %v", missing)
	}
	offset0 := byRank[0].OffsetsNS
	tracks := make([]trace.RankTrack, 0, nodes)
	for r := 0; r < nodes; r++ {
		rep := byRank[r]
		var off int64
		if r < len(offset0) {
			off = offset0[r]
		}
		tracks = append(tracks, trace.RankTrack{
			Rank:     r,
			Procs:    rep.PPN,
			OffsetNS: rep.EpochUnixNS - off,
			Events:   rep.TraceEvents,
			Dropped:  rep.TraceDropped,
		})
	}
	return tracks, nil
}

// WriteMPPrometheus renders the multi-process metric families from the
// latest per-rank reports in the Prometheus text exposition format.
// Output is deterministic for fixed reports: ranks ascend, and within
// a rank the flow series keep their snapshot order (peer, then wire
// type code). Latency histograms are aggregated across ranks; their
// power-of-two buckets become cumulative le bounds.
func WriteMPPrometheus(w io.Writer, reports []MPReport) error {
	b := &strings.Builder{}

	sorted := append([]MPReport(nil), reports...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rank < sorted[j].Rank })

	family := func(name, help, typ string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	family("cashmere_mp_ranks", "Ranks that have reported observability data.", "gauge")
	fmt.Fprintf(b, "cashmere_mp_ranks %d\n", len(sorted))

	emitFlows := func(name string, value func(f transport.FlowCount) int64) {
		for _, rep := range sorted {
			if rep.Frames == nil {
				continue
			}
			emit := func(dir string, flows []transport.FlowCount) {
				for _, f := range flows {
					fmt.Fprintf(b, "%s{rank=\"%d\",peer=\"%d\",dir=%q,type=%q} %d\n",
						name, rep.Rank, f.Peer, dir, f.Type, value(f))
				}
			}
			emit("sent", rep.Frames.Sent)
			emit("recv", rep.Frames.Recv)
		}
	}

	family("cashmere_mp_frames_total", "Wire frames at the transport seam by rank, peer, direction, and frame type.", "counter")
	emitFlows("cashmere_mp_frames_total", func(f transport.FlowCount) int64 { return f.Frames })

	family("cashmere_mp_frame_bytes_total", "Encoded frame bytes at the transport seam by rank, peer, direction, and frame type.", "counter")
	emitFlows("cashmere_mp_frame_bytes_total", func(f transport.FlowCount) int64 { return f.Bytes })

	writeHist := func(name, help string, pick func(s *transport.MsgSnapshot) trace.Hist) {
		merged := map[int64]int64{}
		var count, sum int64
		for _, rep := range sorted {
			if rep.Frames == nil {
				continue
			}
			h := pick(rep.Frames)
			count += h.Count
			sum += h.Sum
			for _, bk := range h.Buckets {
				merged[bk.Lo] += bk.Count
			}
		}
		family(name, help, "histogram")
		los := make([]int64, 0, len(merged))
		for lo := range merged {
			los = append(los, lo)
		}
		sort.Slice(los, func(i, j int) bool { return los[i] < los[j] })
		var cum int64
		for _, lo := range los {
			cum += merged[lo]
			// Bucket [lo, 2lo) upper-bounds at 2lo; the zero bucket holds
			// exactly zero.
			le := 2 * lo
			fmt.Fprintf(b, "%s_bucket{le=\"%d\"} %d\n", name, le, cum)
		}
		fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
		fmt.Fprintf(b, "%s_sum %d\n", name, sum)
		fmt.Fprintf(b, "%s_count %d\n", name, count)
	}

	writeHist("cashmere_mp_page_fetch_latency_ns",
		"TPageReq to TPageReply wall latency at the requester, aggregated across ranks.",
		func(s *transport.MsgSnapshot) trace.Hist { return s.PageFetchNS })
	writeHist("cashmere_mp_flush_ack_latency_ns",
		"TDiff to TFlushAck wall latency at the flusher, aggregated across ranks.",
		func(s *transport.MsgSnapshot) trace.Hist { return s.FlushAckNS })
	writeHist("cashmere_mp_lock_grant_latency_ns",
		"TLockReq to TLockGrant wall latency at the requester (includes hold time of predecessors), aggregated across ranks.",
		func(s *transport.MsgSnapshot) trace.Hist { return s.LockGrantNS })

	family("cashmere_mp_trace_events", "Trace events carried by each rank's most recent report.", "gauge")
	for _, rep := range sorted {
		fmt.Fprintf(b, "cashmere_mp_trace_events{rank=\"%d\"} %d\n", rep.Rank, len(rep.TraceEvents))
	}

	family("cashmere_mp_trace_dropped_total", "Trace events lost to ring wraparound, per rank.", "counter")
	for _, rep := range sorted {
		fmt.Fprintf(b, "cashmere_mp_trace_dropped_total{rank=\"%d\"} %d\n", rep.Rank, rep.TraceDropped)
	}

	_, err := io.WriteString(w, b.String())
	return err
}
