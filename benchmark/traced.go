package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/transport"
	"cashmere/internal/transport/wire"
)

// The seam tracers. Everything per-layer is measured here, from
// outside the product code: tracedProc around apps.Proc, tracedMessenger
// around transport.Messenger and the handler passed to SetHandler, and
// countingProc for the simulator.
//
// Self times follow the span rule: a layer's time is its span minus the
// child spans inside it. An access span's child is the page-fetch wait
// (request sent -> reply handed to the handler); a release span's child
// is the flush fence (first diff sent -> last flush-ack). Both children
// are exact at one processor per node, which is what every mp_*
// workload runs.

// countingProc counts shared accesses on the simulator. It takes no
// timestamps: 32 goroutines share one P there, so a per-call wall time
// would mostly measure the scheduler, and timing was seen to perturb
// virtual time. Each simulated processor owns its wrapper.
type countingProc struct {
	apps.Proc
	calls, words int64
}

func (c *countingProc) count(words int) {
	c.calls++
	c.words += int64(words)
}

func (c *countingProc) Load(addr int) int64        { c.count(1); return c.Proc.Load(addr) }
func (c *countingProc) Store(addr int, v int64)    { c.count(1); c.Proc.Store(addr, v) }
func (c *countingProc) LoadF(addr int) float64     { c.count(1); return c.Proc.LoadF(addr) }
func (c *countingProc) StoreF(addr int, v float64) { c.count(1); c.Proc.StoreF(addr, v) }

func (c *countingProc) LoadFRow(dst []float64, addr int) {
	c.count(len(dst))
	c.Proc.LoadFRow(dst, addr)
}

func (c *countingProc) StoreFRow(addr int, src []float64) {
	c.count(len(src))
	c.Proc.StoreFRow(addr, src)
}

// span is a category's accumulated self time and call count.
type span struct {
	ns, calls int64
}

// tracedProc times every call an application body makes on its
// processor. Its counters are plain fields owned by the body's
// goroutine; mpTrace collects the wrapper when the body returns.
type tracedProc struct {
	apps.Proc
	msgr  *tracedMessenger // the processor's node
	epoch time.Time

	body    int64 // the whole Body call, ns
	access  span  // includes the page-fetch waits inside it
	words   int64
	lock    span
	unlock  span // release spans exclude the flush fence ...
	barrier span
	flagSet span
	flush   int64 // ... which accumulates here
	flagWt  span
}

func (t *tracedProc) now() int64 { return int64(time.Since(t.epoch)) }

// accessed closes an access span opened at t0.
func (t *tracedProc) accessed(t0 int64, words int) {
	t.access.ns += t.now() - t0
	t.access.calls++
	t.words += int64(words)
}

func (t *tracedProc) Load(addr int) int64 {
	t0 := t.now()
	v := t.Proc.Load(addr)
	t.accessed(t0, 1)
	return v
}

func (t *tracedProc) Store(addr int, v int64) {
	t0 := t.now()
	t.Proc.Store(addr, v)
	t.accessed(t0, 1)
}

func (t *tracedProc) LoadF(addr int) float64 {
	t0 := t.now()
	v := t.Proc.LoadF(addr)
	t.accessed(t0, 1)
	return v
}

func (t *tracedProc) StoreF(addr int, v float64) {
	t0 := t.now()
	t.Proc.StoreF(addr, v)
	t.accessed(t0, 1)
}

func (t *tracedProc) LoadFRow(dst []float64, addr int) {
	t0 := t.now()
	t.Proc.LoadFRow(dst, addr)
	t.accessed(t0, len(dst))
}

func (t *tracedProc) StoreFRow(addr int, src []float64) {
	t0 := t.now()
	t.Proc.StoreFRow(addr, src)
	t.accessed(t0, len(src))
}

func (t *tracedProc) Lock(i int) {
	t0 := t.now()
	t.Proc.Lock(i)
	t.lock.ns += t.now() - t0
	t.lock.calls++
}

func (t *tracedProc) WaitFlag(i int) {
	t0 := t.now()
	t.Proc.WaitFlag(i)
	t.flagWt.ns += t.now() - t0
	t.flagWt.calls++
}

// release times a release operation and moves the flush fence it
// waited on out of its span.
func (t *tracedProc) release(s *span, op func()) {
	f0 := t.msgr.fenceNS.Load()
	t0 := t.now()
	op()
	d := t.now() - t0
	fence := t.msgr.fenceNS.Load() - f0
	s.ns += d - fence
	s.calls++
	t.flush += fence
}

func (t *tracedProc) Unlock(i int)  { t.release(&t.unlock, func() { t.Proc.Unlock(i) }) }
func (t *tracedProc) SetFlag(i int) { t.release(&t.flagSet, func() { t.Proc.SetFlag(i) }) }
func (t *tracedProc) Barrier()      { t.release(&t.barrier, t.Proc.Barrier) }
func (t *tracedProc) BeginInit()    { t.release(&t.barrier, t.Proc.BeginInit) }
func (t *tracedProc) EndInit()      { t.release(&t.barrier, t.Proc.EndInit) }

// Warmup is a barrier bracket around f; the accesses f makes come back
// through this wrapper and are already in the access span.
func (t *tracedProc) Warmup(f func()) {
	a0 := t.access.ns
	t.release(&t.barrier, func() { t.Proc.Warmup(f) })
	t.barrier.ns -= t.access.ns - a0
}

// tracedApp hands the application a tracedProc and times Body and
// Verify.
type tracedApp struct {
	apps.App
	tr   *mpTrace
	rank int
}

func (a *tracedApp) Body(p apps.Proc) {
	tp := &tracedProc{Proc: p, msgr: a.tr.msgr[a.rank], epoch: a.tr.epoch}
	t0 := tp.now()
	a.App.Body(tp)
	tp.body = tp.now() - t0
	a.tr.mu.Lock()
	a.tr.procs = append(a.tr.procs, tp)
	a.tr.mu.Unlock()
}

// mpTrace is one traced repetition's collection.
type mpTrace struct {
	epoch time.Time
	msgr  []*tracedMessenger // by rank
	// verifying is raised when rank 0 enters App.Verify: the fetches
	// Verify makes are not the workload's and are not sampled.
	verifying atomic.Bool

	mu    sync.Mutex
	procs []*tracedProc
}

func newMPTrace(nodes int) *mpTrace {
	tr := &mpTrace{epoch: time.Now(), msgr: make([]*tracedMessenger, nodes)}
	for r := range tr.msgr {
		tr.msgr[r] = &tracedMessenger{tr: tr, pending: make(map[reqKey]int64), touched: make(map[int64]struct{})}
	}
	return tr
}

// Request/reply pairs the messenger wrapper correlates, the same three
// transport.FrameStats does, but keeping every sample so percentiles
// are exact rather than power-of-two buckets.
const (
	reqPage  = iota // TPageReq  -> TPageReply, by Frame.C
	reqFlush        // TDiff     -> TFlushAck,  by Frame.B (the token) and page
	reqLock         // TLockReq  -> TLockGrant, by Frame.B (the gpid)
	numReqs
)

type reqKey struct {
	class int
	a, b  int64
}

// tracedMessenger wraps one rank's messenger. Send runs on processor
// and handler goroutines alike, so its counters are atomics; they are
// touched once per frame, never per shared access.
type tracedMessenger struct {
	inner transport.Messenger
	tr    *mpTrace

	sendNS, sends, sentBytes atomic.Int64
	encodeNS, decodeNS       atomic.Int64
	handlerNS, handled       atomic.Int64
	scratch                  sync.Pool // *[]byte for the wire re-encode

	// The flush fence: wall time with at least one diff unacknowledged.
	unacked, fenceStart, fenceNS atomic.Int64

	mu      sync.Mutex
	pending map[reqKey]int64
	samples [numReqs][]int64   // request -> reply latencies, ns
	touched map[int64]struct{} // pages this rank ever requested
}

func (m *tracedMessenger) wrap(inner transport.Messenger) transport.Messenger {
	m.inner = inner
	return m
}

func (m *tracedMessenger) now() int64 { return int64(time.Since(m.tr.epoch)) }

func (m *tracedMessenger) Self() int    { return m.inner.Self() }
func (m *tracedMessenger) Peers() int   { return m.inner.Peers() }
func (m *tracedMessenger) Close() error { return m.inner.Close() }

// requestKey is the key a request frame and its reply share.
func requestKey(f wire.Frame) reqKey {
	switch f.Type {
	case wire.TPageReq, wire.TPageReply:
		return reqKey{reqPage, 0, f.C}
	case wire.TDiff, wire.TFlushAck:
		return reqKey{reqFlush, f.A, f.B}
	default: // TLockReq, TLockGrant
		return reqKey{reqLock, 0, f.B}
	}
}

func (m *tracedMessenger) Send(to int, f wire.Frame) error {
	start := m.now()
	// Register before sending: the reply can arrive before Send returns.
	switch f.Type {
	case wire.TPageReq, wire.TDiff, wire.TLockReq:
		key := requestKey(f)
		m.mu.Lock()
		m.pending[key] = start
		if f.Type == wire.TPageReq && !m.tr.verifying.Load() {
			m.touched[f.A] = struct{}{}
		}
		m.mu.Unlock()
		if f.Type == wire.TDiff && m.unacked.Add(1) == 1 {
			m.fenceStart.Store(start)
		}
	}
	err := m.inner.Send(to, f)
	m.sendNS.Add(m.now() - start)
	m.sends.Add(1)

	// Cost the wire layer on the real frame mix: encode and parse the
	// frame into scratch, outside the Send span.
	buf, _ := m.scratch.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	t0 := m.now()
	*buf = wire.Append((*buf)[:0], f)
	t1 := m.now()
	_, _, perr := wire.Parse(*buf)
	t2 := m.now()
	m.encodeNS.Add(t1 - t0)
	m.decodeNS.Add(t2 - t1)
	m.sentBytes.Add(int64(len(*buf)))
	m.scratch.Put(buf)
	if err == nil {
		err = perr // a frame mprun sends always parses; surface it if not
	}
	return err
}

func (m *tracedMessenger) SetHandler(h func(from int, f wire.Frame)) {
	m.inner.SetHandler(func(from int, f wire.Frame) {
		start := m.now()
		switch f.Type {
		case wire.TPageReply, wire.TFlushAck, wire.TLockGrant:
			key := requestKey(f)
			m.mu.Lock()
			t0, ok := m.pending[key]
			delete(m.pending, key)
			if ok && !m.tr.verifying.Load() {
				m.samples[key.class] = append(m.samples[key.class], start-t0)
			}
			m.mu.Unlock()
			if f.Type == wire.TFlushAck && m.unacked.Add(-1) == 0 {
				m.fenceNS.Add(start - m.fenceStart.Load())
			}
		}
		h(from, f)
		m.handlerNS.Add(m.now() - start)
		m.handled.Add(1)
	})
}

// layers adds the repetition's per-layer numbers to out. cost is the
// repetition's metered usage (Verify excluded) and verify the time
// inside App.Verify.
func (tr *mpTrace) layers(out map[string]float64, cost usage, verify time.Duration) {
	const ms = 1e6
	var body, access, words, calls, lock, unlock, barrier, flagSet, flagWt, flush int64
	for _, p := range tr.procs {
		body += p.body
		access += p.access.ns
		calls += p.access.calls
		words += p.words
		lock += p.lock.ns
		unlock += p.unlock.ns
		barrier += p.barrier.ns
		flagSet += p.flagSet.ns
		flagWt += p.flagWt.ns
		flush += p.flush
	}
	var samples [numReqs][]int64
	var sendNS, encNS, decNS, handNS, handled int64
	touched := 0
	for _, m := range tr.msgr {
		touched += len(m.touched)
		for c := range samples {
			samples[c] = append(samples[c], m.samples[c]...)
		}
		sendNS += m.sendNS.Load()
		encNS += m.encodeNS.Load()
		decNS += m.decodeNS.Load()
		handNS += m.handlerNS.Load()
		handled += m.handled.Load()
	}
	for c := range samples {
		sort.Slice(samples[c], func(i, j int) bool { return samples[c][i] < samples[c][j] })
	}
	fetchWait := sum(samples[reqPage])
	access -= fetchWait

	out["apps.user_ms"] = float64(body-access-fetchWait-lock-unlock-barrier-flagSet-flagWt-flush) / ms
	out["apps.verify_ms"] = float64(verify) / ms
	out["mprun.access_ms"] = float64(access) / ms
	out["mprun.access_calls"] = float64(calls)
	out["mprun.access_words"] = float64(words)
	out["mprun.access_ns_per_word"] = ratio(float64(access), float64(words))
	out["mprun.fetch_wait_ms"] = float64(fetchWait) / ms
	out["mprun.page_fetches"] = float64(len(samples[reqPage]))
	out["mprun.fetches_per_touched_page"] = ratio(float64(len(samples[reqPage])), float64(touched))
	out["mprun.page_fetch_us_p50"] = quantileSorted(samples[reqPage], 0.50) / 1e3
	out["mprun.page_fetch_us_p99"] = quantileSorted(samples[reqPage], 0.99) / 1e3
	out["mprun.lock_wait_ms"] = float64(lock) / ms
	out["mprun.lock_grant_us_p50"] = quantileSorted(samples[reqLock], 0.50) / 1e3
	out["mprun.lock_grant_us_p99"] = quantileSorted(samples[reqLock], 0.99) / 1e3
	out["mprun.unlock_ms"] = float64(unlock) / ms
	out["mprun.barrier_ms"] = float64(barrier) / ms
	out["mprun.flag_set_ms"] = float64(flagSet) / ms
	out["mprun.flag_wait_ms"] = float64(flagWt) / ms
	out["mprun.flush_wait_ms"] = float64(flush) / ms
	out["mprun.flush_acks"] = float64(len(samples[reqFlush]))
	out["mprun.flush_ack_us_p50"] = quantileSorted(samples[reqFlush], 0.50) / 1e3
	out["mprun.handler_ms"] = float64(handNS) / ms
	out["mprun.handler_frames"] = float64(handled)
	out["mprun.body_ms"] = float64(body) / ms

	out["transport.send_ms"] = float64(sendNS) / ms
	frames := int64(0)
	for _, n := range cost.frames {
		frames += n
	}
	out["transport.frames"] = float64(frames)
	out["transport.bytes_mb"] = float64(cost.sentBytes) / mb
	out["transport.frames_page"] = float64(cost.frames[classPage])
	out["transport.frames_diff"] = float64(cost.frames[classDiff])
	out["transport.frames_notice"] = float64(cost.frames[classNotice])
	out["transport.frames_sync"] = float64(cost.frames[classSync])
	out["wire.encode_ms"] = float64(encNS) / ms
	out["wire.decode_ms"] = float64(decNS) / ms
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
