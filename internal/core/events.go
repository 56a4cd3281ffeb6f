package core

import "cashmere/internal/trace"

// Structured event emission (see internal/trace). Every helper is
// gated on a single nil check, charges no virtual time, and takes no
// locks, so tracing never perturbs the protocol it observes: a traced
// run and an untraced run of a deterministic application produce
// identical virtual-time results.

// emit records an instantaneous event at the processor's current
// virtual time.
func (p *Proc) emit(k trace.Kind, page int, arg, arg2 int64) {
	if p.ring != nil {
		p.emitSpan(k, page, p.clk.Now(), arg, arg2)
	}
}

// emitSpan records an event covering virtual time [beginVT, now).
func (p *Proc) emitSpan(k trace.Kind, page int, beginVT int64, arg, arg2 int64) {
	if p.ring == nil {
		return
	}
	p.tr.EmitProc(p.global, trace.Event{
		Kind: k,
		Proc: int32(p.global),
		Node: int32(p.n.id),
		Page: int32(page),
		VT:   beginVT,
		Dur:  p.clk.Now() - beginVT,
		Arg:  arg,
		Arg2: arg2,
	})
}

// emitLink records an event covering virtual time [vt, vt+dur) on the
// fabric link track of the processor's physical node
// (transport/simchan): a synchronization write (msg-send, arg2 its
// kind) or a flag delivery.
func (p *Proc) emitLink(k trace.Kind, vt, dur, arg, arg2 int64) {
	if p.ring == nil {
		return
	}
	p.tr.EmitLink(p.n.phys, trace.Event{
		Kind: k,
		Proc: -1,
		Node: int32(p.n.phys),
		Page: -1,
		VT:   vt,
		Dur:  dur,
		Arg:  arg,
		Arg2: arg2,
	})
}
