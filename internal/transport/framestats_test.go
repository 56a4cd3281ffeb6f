package transport

import (
	"reflect"
	"testing"

	"cashmere/internal/transport/wire"
)

func TestFrameStatsCounters(t *testing.T) {
	s := NewFrameStats(3)
	req := wire.Frame{Type: wire.TPageReq, A: 7, C: 1}
	s.RecordSend(1, req)
	s.RecordSend(1, req)
	s.RecordSend(2, wire.Frame{Type: wire.TDiff, A: 7, B: 9, Offs: []int32{0, 2}, Words: []int64{1, 2}})
	s.RecordRecv(1, wire.Frame{Type: wire.TPageReply, A: 7, C: 1, Words: make([]int64, 16)})

	snap := s.Snapshot()
	if snap.Peers != 3 {
		t.Errorf("Peers = %d, want 3", snap.Peers)
	}
	wantSent := []FlowCount{
		{Peer: 1, Type: "page-req", Frames: 2, Bytes: 2 * int64(wire.EncodedLen(req))},
		{Peer: 2, Type: "diff", Frames: 1, Bytes: int64(wire.EncodedLen(wire.Frame{Type: wire.TDiff, A: 7, B: 9, Offs: []int32{0, 2}, Words: []int64{1, 2}}))},
	}
	if !reflect.DeepEqual(snap.Sent, wantSent) {
		t.Errorf("Sent = %+v, want %+v", snap.Sent, wantSent)
	}
	if len(snap.Recv) != 1 || snap.Recv[0].Peer != 1 || snap.Recv[0].Type != "page-reply" || snap.Recv[0].Frames != 1 {
		t.Errorf("Recv = %+v", snap.Recv)
	}
}

func TestFrameStatsLatencyCorrelation(t *testing.T) {
	s := NewFrameStats(2)

	// Page fetch: request with a correlation id, matching reply.
	s.RecordSend(1, wire.Frame{Type: wire.TPageReq, A: 3, C: 42})
	s.RecordRecv(1, wire.Frame{Type: wire.TPageReply, A: 3, C: 42})
	// Mismatched id: no sample.
	s.RecordSend(1, wire.Frame{Type: wire.TPageReq, A: 4, C: 43})
	s.RecordRecv(1, wire.Frame{Type: wire.TPageReply, A: 4, C: 99})
	// Diff flush and lock grant, correlated by Frame.B.
	s.RecordSend(0, wire.Frame{Type: wire.TDiff, A: 5, B: 7})
	s.RecordRecv(0, wire.Frame{Type: wire.TFlushAck, A: 5, B: 7})
	s.RecordSend(0, wire.Frame{Type: wire.TLockReq, A: 0, B: 3})
	s.RecordRecv(0, wire.Frame{Type: wire.TLockGrant, A: 0, B: 3})

	snap := s.Snapshot()
	if snap.PageFetchNS.Count != 1 {
		t.Errorf("PageFetchNS.Count = %d, want 1 (mismatched ids must not correlate)", snap.PageFetchNS.Count)
	}
	if snap.FlushAckNS.Count != 1 {
		t.Errorf("FlushAckNS.Count = %d, want 1", snap.FlushAckNS.Count)
	}
	if snap.LockGrantNS.Count != 1 {
		t.Errorf("LockGrantNS.Count = %d, want 1", snap.LockGrantNS.Count)
	}
	if snap.PageFetchNS.Sum < 0 {
		t.Errorf("negative latency sum %d", snap.PageFetchNS.Sum)
	}
}

func TestFrameStatsFlushAckPerPage(t *testing.T) {
	// One release sends all its diffs under one token; two diffs to one
	// home are two flushes, and each ack is one sample.
	s := NewFrameStats(2)
	s.RecordSend(1, wire.Frame{Type: wire.TDiff, A: 3, B: 7})
	s.RecordSend(1, wire.Frame{Type: wire.TDiff, A: 4, B: 7})
	s.RecordRecv(1, wire.Frame{Type: wire.TFlushAck, A: 4, B: 7})
	s.RecordRecv(1, wire.Frame{Type: wire.TFlushAck, A: 3, B: 7})
	if got := s.Snapshot().FlushAckNS.Count; got != 2 {
		t.Errorf("FlushAckNS.Count = %d, want 2", got)
	}
}

func TestFrameStatsZeroCorrelationIDSkipped(t *testing.T) {
	s := NewFrameStats(2)
	// A request without a correlation id (C == 0) must not enter the
	// pending map: a reply bearing C == 0 would otherwise match any
	// such request from that peer.
	s.RecordSend(1, wire.Frame{Type: wire.TPageReq, A: 3})
	s.RecordRecv(1, wire.Frame{Type: wire.TPageReply, A: 3})
	snap := s.Snapshot()
	if snap.PageFetchNS.Count != 0 {
		t.Errorf("uncorrelated request produced %d latency samples", snap.PageFetchNS.Count)
	}
	// The frames themselves still count.
	if len(snap.Sent) != 1 || snap.Sent[0].Frames != 1 {
		t.Errorf("Sent = %+v", snap.Sent)
	}
}

func TestFrameStatsOutOfRangePeer(t *testing.T) {
	s := NewFrameStats(2)
	// Out-of-range peers are dropped, not panicked on.
	s.RecordSend(-1, wire.Frame{Type: wire.THello})
	s.RecordSend(2, wire.Frame{Type: wire.THello})
	s.RecordRecv(5, wire.Frame{Type: wire.THello})
	if snap := s.Snapshot(); len(snap.Sent) != 0 || len(snap.Recv) != 0 {
		t.Errorf("out-of-range peers counted: %+v", snap)
	}
}

func TestFrameStatsSnapshotDeterministicOrder(t *testing.T) {
	s := NewFrameStats(4)
	// Record in scrambled peer/type order; the snapshot must come out
	// sorted by (peer, type code).
	s.RecordSend(3, wire.Frame{Type: wire.TBarArrive})
	s.RecordSend(1, wire.Frame{Type: wire.TDiff})
	s.RecordSend(1, wire.Frame{Type: wire.TPageReq, C: 1})
	s.RecordSend(0, wire.Frame{Type: wire.TFlagSet})
	snap := s.Snapshot()
	var got [][2]any
	for _, f := range snap.Sent {
		got = append(got, [2]any{f.Peer, f.Type})
	}
	want := [][2]any{
		{0, "flag-set"},
		{1, "diff"},
		{1, "page-req"},
		{3, "bar-arrive"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Sent order = %v, want %v", got, want)
	}
}
