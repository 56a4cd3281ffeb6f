package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"cashmere/internal/trace"
	"cashmere/internal/transport/wire"
)

// FrameStats counts messenger traffic at the transport seam: per-peer,
// per-wire.Type frame and byte totals in each direction, plus
// request→reply wall-clock latency histograms for the three
// correlatable exchanges of the multi-process protocol:
//
//   - page fetch:  TPageReq → TPageReply, correlated by the request id
//     the sender places in Frame.C (the home echoes it back);
//   - diff flush:  TDiff → TFlushAck, correlated by the page in
//     Frame.A and the ack token in Frame.B (the home echoes both; one
//     release sends all its diffs under one token, so the page tells
//     two diffs to one home apart);
//   - lock grant:  TLockReq → TLockGrant, correlated by the requesting
//     global processor id in Frame.B (a processor has at most one lock
//     request outstanding). Grant latency includes predecessors' hold
//     time — it is the latency the application observes.
//
// Barrier waits are deliberately not correlated here: TBarRelease is a
// broadcast, not a reply, and the runtime's EvBarrier trace spans
// already measure the wait per processor.
//
// Byte totals use wire.EncodedLen — the exact on-the-wire size for the
// tcp backend and the canonical equivalent for the in-process shm mesh,
// so the two backends report comparable numbers.
//
// A nil *FrameStats records nothing, so a backend with none attached
// pays one nil check per frame.
// All counter updates are atomic; RecordSend and RecordRecv may be
// called from any goroutine. The latency correlation map is guarded by
// a mutex taken only for the three request/reply types above.
type FrameStats struct {
	epoch time.Time

	// counters[dir][peer][type] — dir 0 = sent, 1 = received.
	counters [2][][]countPair

	mu      sync.Mutex
	pending map[pendingKey]int64 // request send time, ns since epoch

	pageFetchNS trace.HistAcc
	flushAckNS  trace.HistAcc
	lockGrantNS trace.HistAcc
}

type countPair struct {
	frames atomic.Int64
	bytes  atomic.Int64
}

// numWireTypes bounds the per-type arrays; types at or beyond it are
// folded into the last slot so a future wire.Type cannot index out of
// range.
const numWireTypes = int(wire.TBye) + 2

type pendingKey struct {
	peer  int32
	class uint8
	id    int64
	page  int64 // the diff's page for classFlush, else 0
}

const (
	classPage uint8 = iota
	classFlush
	classLock
)

// NewFrameStats returns a collector for a mesh of peers ranks.
func NewFrameStats(peers int) *FrameStats {
	s := &FrameStats{epoch: time.Now(), pending: make(map[pendingKey]int64)}
	for d := range s.counters {
		s.counters[d] = make([][]countPair, peers)
		for p := range s.counters[d] {
			s.counters[d][p] = make([]countPair, numWireTypes)
		}
	}
	return s
}

func (s *FrameStats) nowNS() int64 { return time.Since(s.epoch).Nanoseconds() }

func typeSlot(t wire.Type) int {
	if int(t) >= numWireTypes {
		return numWireTypes - 1
	}
	return int(t)
}

// RecordSend accounts one frame sent to peer to.
func (s *FrameStats) RecordSend(to int, f wire.Frame) {
	if s == nil || to < 0 || to >= len(s.counters[0]) {
		return
	}
	c := &s.counters[0][to][typeSlot(f.Type)]
	c.frames.Add(1)
	c.bytes.Add(int64(wire.EncodedLen(f)))

	var key pendingKey
	switch f.Type {
	case wire.TPageReq:
		if f.C == 0 {
			return // sender threads no correlation id
		}
		key = pendingKey{int32(to), classPage, f.C, 0}
	case wire.TDiff:
		key = pendingKey{int32(to), classFlush, f.B, f.A}
	case wire.TLockReq:
		key = pendingKey{int32(to), classLock, f.B, 0}
	default:
		return
	}
	now := s.nowNS()
	s.mu.Lock()
	s.pending[key] = now
	s.mu.Unlock()
}

// RecordRecv accounts one frame received from peer from.
func (s *FrameStats) RecordRecv(from int, f wire.Frame) {
	if s == nil || from < 0 || from >= len(s.counters[1]) {
		return
	}
	c := &s.counters[1][from][typeSlot(f.Type)]
	c.frames.Add(1)
	c.bytes.Add(int64(wire.EncodedLen(f)))

	var key pendingKey
	var h *trace.HistAcc
	switch f.Type {
	case wire.TPageReply:
		if f.C == 0 {
			return
		}
		key, h = pendingKey{int32(from), classPage, f.C, 0}, &s.pageFetchNS
	case wire.TFlushAck:
		key, h = pendingKey{int32(from), classFlush, f.B, f.A}, &s.flushAckNS
	case wire.TLockGrant:
		key, h = pendingKey{int32(from), classLock, f.B, 0}, &s.lockGrantNS
	default:
		return
	}
	now := s.nowNS()
	s.mu.Lock()
	t0, ok := s.pending[key]
	if ok {
		delete(s.pending, key)
	}
	s.mu.Unlock()
	if ok {
		h.Add(now - t0)
	}
}

// FlowCount is one (peer, frame type) traffic total.
type FlowCount struct {
	Peer   int    `json:"peer"`
	Type   string `json:"type"`
	Frames int64  `json:"frames"`
	Bytes  int64  `json:"bytes"`
}

// MsgSnapshot is a point-in-time export of a FrameStats, shaped for
// JSON transport from a child process to the launcher and for the
// Prometheus encoder. Flow lists hold only nonzero entries, sorted by
// (peer, type code) so output is deterministic.
type MsgSnapshot struct {
	Peers int         `json:"peers"`
	Sent  []FlowCount `json:"sent,omitempty"`
	Recv  []FlowCount `json:"recv,omitempty"`

	// Request→reply wall latency distributions, nanoseconds.
	PageFetchNS trace.Hist `json:"page_fetch_ns"`
	FlushAckNS  trace.Hist `json:"flush_ack_ns"`
	LockGrantNS trace.Hist `json:"lock_grant_ns"`
}

// Snapshot exports the collector's current totals. It is safe to call
// while traffic is flowing; a mid-run snapshot is monitoring-grade (a
// frame recorded concurrently may or may not be included).
func (s *FrameStats) Snapshot() MsgSnapshot {
	out := MsgSnapshot{Peers: len(s.counters[0])}
	flows := func(d int) []FlowCount {
		var fl []FlowCount
		for p := range s.counters[d] {
			for t := range s.counters[d][p] {
				c := &s.counters[d][p][t]
				if n := c.frames.Load(); n != 0 {
					fl = append(fl, FlowCount{
						Peer: p, Type: wire.Type(t).String(),
						Frames: n, Bytes: c.bytes.Load(),
					})
				}
			}
		}
		return fl
	}
	out.Sent = flows(0)
	out.Recv = flows(1)
	out.PageFetchNS = s.pageFetchNS.Export()
	out.FlushAckNS = s.flushAckNS.Export()
	out.LockGrantNS = s.lockGrantNS.Export()
	return out
}
