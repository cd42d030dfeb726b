// Package tagobs fans a memory backend's tag events out to the three sinks
// a harness can attach: a core.Tracer, per-thread telemetry recorders and
// per-thread reclamation-domain handles.
//
// Both backends (the simulated machine and the vtags emulation) report the
// same events at the same points — a line is tagged, a line is untagged,
// the tag set is cleared, a validation runs, a VAS/IAS commit succeeds or
// fails — and the machine adds its coherence events (hits, fills,
// invalidations, tag evictions). A backend embeds Hooks in its memory, so
// SetTracer, SetTelemetry and SetReclaim are written here once, and gives
// each thread an Observer, which takes one call per event.
//
// Every event method is small enough to inline: it tests its sinks and
// makes at most one call, so a run with nothing attached pays a branch per
// event. The compiler's inlining report keeps that true (internal/archtest
// checks it).
package tagobs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/reclaim"
	"repro/internal/telemetry"
)

// Hooks is a memory's attach surface: the tracer every thread reports to,
// and the observers of the counted threads, in id order. A backend embeds
// it by value and binds each thread's Observer to it at construction. Its
// methods may only be called while the memory is quiescent. None of them
// may be named Thread: they are promoted onto the memory.
type Hooks struct {
	tracer core.Tracer
	obs    []*Observer
}

// SetTracer installs (or removes, with nil) the tracer every thread,
// spares included, reports its events to.
func (h *Hooks) SetTracer(tr core.Tracer) { h.tracer = tr }

// SetTelemetry attaches (or with nil detaches) per-thread telemetry
// recorders: thread i writes into s.Core(i) from its own goroutine. The
// set must have at least as many cores as the memory has threads; a
// smaller one panics before any thread is attached.
func (h *Hooks) SetTelemetry(s *telemetry.Set) {
	if s != nil && s.NumCores() < len(h.obs) {
		panic(fmt.Sprintf("tagobs: telemetry set of %d cores for %d threads", s.NumCores(), len(h.obs)))
	}
	for i, o := range h.obs {
		o.tel = nil
		if s != nil {
			o.tel = s.Core(i)
		}
	}
}

// SetReclaim attaches (or with nil detaches) a reclamation domain: thread i
// mirrors its tag set into d.Handle(i) — AddTag announces, RemoveTag and
// ClearTagSet retract — which is what lets reclaim.Pool scans see which
// retired lines a reader could still validate; and, when the domain's
// use-after-free guard is on, reports its successful validations so that
// one covering a freed line is convicted. The domain must have at least as
// many handles as the memory has threads; a smaller one panics before any
// thread is attached. Spare threads are never attached.
func (h *Hooks) SetReclaim(d *reclaim.Domain) {
	if d != nil && d.NumThreads() < len(h.obs) {
		panic(fmt.Sprintf("tagobs: reclamation domain of %d handles for %d threads", d.NumThreads(), len(h.obs)))
	}
	for i, o := range h.obs {
		o.rec = nil
		if d != nil {
			o.rec = d.Handle(i)
		}
	}
}

// Observer is one thread's end of its memory's Hooks. The thread owns it
// (embedded by value) and calls it from its own goroutine only. The sinks
// are held as concrete pointers, so an event with nothing attached costs
// a nil test.
type Observer struct {
	h   *Hooks
	tel *telemetry.Core
	rec *reclaim.Handle
	// clock is the thread's backend clock (simulated cycles, or vtags
	// ticks), read when an event is traced; nil stamps cycle 0.
	clock *uint64
	id    int
}

// Bind makes o the observer of thread id of h's memory, stamping traced
// events with *clock. Counted threads must be bound in id order 0, 1, ...;
// a spare thread is bound with id -1, traces as core -1 and is never
// attached to telemetry or reclamation.
func (o *Observer) Bind(h *Hooks, id int, clock *uint64) {
	*o = Observer{h: h, clock: clock, id: id}
	if id >= 0 {
		h.obs = append(h.obs, o)
	}
}

// Tagged reports that line l joined the tag set, which now holds n lines.
func (o *Observer) Tagged(l core.Line, n int) {
	if o.rec != nil || o.tel != nil || o.h.tracer != nil {
		o.tagged(l, n)
	}
}

func (o *Observer) tagged(l core.Line, n int) {
	if o.rec != nil {
		o.rec.Announce(l)
	}
	if o.tel != nil {
		o.tel.NoteTagOccupancy(n)
	}
	o.Emit(core.EvTagAdd, -1, l)
}

// Untagged reports that line l left the tag set (RemoveTag).
func (o *Observer) Untagged(l core.Line) {
	if o.rec != nil || o.h.tracer != nil {
		o.untagged(l)
	}
}

func (o *Observer) untagged(l core.Line) {
	if o.rec != nil {
		o.rec.Retract(l)
	}
	o.Emit(core.EvTagRemove, -1, l)
}

// Cleared reports that the tag set was emptied (ClearTagSet).
func (o *Observer) Cleared() {
	if o.rec != nil {
		o.rec.RetractAll()
	}
}

// Valid reports that the whole tag set validated: the reclamation guard's
// hook. A commit calls it under its locks, before its write.
func (o *Observer) Valid() {
	if o.rec != nil {
		o.rec.NoteValidated()
	}
}

// Validated reports a Validate's outcome; a success is also Valid.
func (o *Observer) Validated(ok bool) {
	if o.rec != nil || o.tel != nil || o.h.tracer != nil {
		o.validated(ok)
	}
}

func (o *Observer) validated(ok bool) {
	kind := core.EvValidateFail
	if ok {
		o.Valid()
		kind = core.EvValidateOK
	}
	if o.tel != nil {
		o.tel.NoteValidate(ok)
	}
	o.Emit(kind, -1, 0)
}

// Committed reports a VAS (ias false) or IAS commit's outcome on its
// target line.
func (o *Observer) Committed(ias, ok bool, target core.Line) {
	if o.tel != nil || o.h.tracer != nil {
		o.committed(ias, ok, target)
	}
}

func (o *Observer) committed(ias, ok bool, target core.Line) {
	var kind core.EventKind
	switch {
	case ias && ok:
		kind = core.EvCommitIAS
	case ias:
		kind = core.EvIASFail
	case ok:
		kind = core.EvCommitVAS
	default:
		kind = core.EvVASFail
	}
	if o.tel != nil {
		if ias {
			o.tel.NoteIAS(ok)
		} else {
			o.tel.NoteVAS(ok)
		}
	}
	o.Emit(kind, -1, target)
}

// Emit traces one event — a coherence event of the machine's, or a tag
// event — if a tracer is installed. target is the core a message is sent
// to, or -1.
func (o *Observer) Emit(kind core.EventKind, target int, line core.Line) {
	if o.h.tracer != nil {
		o.emitSlow(kind, target, line)
	}
}

// emitSlow must stay out of line: inlined into Emit it pushes Emit, and
// every event method that calls it, over the inlining budget.
//
//go:noinline
func (o *Observer) emitSlow(kind core.EventKind, target int, line core.Line) {
	var cycle uint64
	if o.clock != nil {
		cycle = *o.clock
	}
	o.h.tracer.Trace(core.Event{Kind: kind, Core: o.id, Target: target, Line: uint64(line), Cycle: cycle})
}
