package vtags

import (
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Observability for the emulation. The vtags backend has no cost model, so
// its clock is logical: every memory/tag operation advances the thread's
// tick counter by one, and per-op "latency" reads as memory operations per
// structure operation. Tracing speaks the shared core.Event/core.Tracer
// vocabulary so the same Perfetto exporter (and the backend-differential
// parity test) consumes both: the emulation emits exactly the tag-relevant
// subset of core.EventKind — TagAdd/TagRemove/TagEvicted, Validate*,
// Commit*/VAS/IAS failures — with ticks in the Cycle field. Conflicts are
// not traced at *detection* (a failed Validate names no line): on hardware
// the TagEvicted event belongs to the writer that invalidated the line.
// The emulation does keep a per-line sharer index now (the mask in
// lineState.word), and a writer knows whose bits it took, but the index is
// deliberately imprecise: bits are sticky, so a taken bit says the thread
// tagged the line at some point, not that it holds a tag now, and threads
// beyond the mask's width are not in it at all. TagEvicted attribution is
// therefore still not claimed, and only explicit ForceTagEviction emits
// TagEvicted here.

// SetTracer installs (or removes, with nil) a tracer receiving the
// emulation's tag events. Only call while quiescent.
func (m *Memory) SetTracer(tr core.Tracer) { m.tracer = tr }

// SetTelemetry attaches (or with nil detaches) per-thread telemetry
// recorders: thread i writes into s.Core(i) from its own goroutine. Only
// call while quiescent. The set must have at least NumThreads cores.
func (m *Memory) SetTelemetry(s *telemetry.Set) {
	if s != nil && s.NumCores() < len(m.threads) {
		panic("vtags: telemetry set smaller than thread count")
	}
	for i, t := range m.threads {
		if s == nil {
			t.tel = nil
		} else {
			t.tel = s.Core(i)
		}
	}
}

// OpClock returns this thread's logical clock (one tick per memory/tag
// operation) and its cumulative validation/commit failure count, the two
// inputs per-op telemetry needs. Single-writer — call from the goroutine
// owning the handle (or at quiescence).
func (t *Thread) OpClock() (clock, fails uint64) { return t.ticks, t.fails }

// emit delivers a tag event if a tracer is installed; like the machine's
// emit, the guard is small enough to inline so untraced runs pay a branch
// (CI greps the compiler's -m output for it). emitSlow must stay out of
// line for that: inlined into emit it pushes emit over the budget.
func (t *Thread) emit(kind core.EventKind, target int, line core.Line) {
	if t.m.tracer != nil {
		t.emitSlow(kind, target, line)
	}
}

//go:noinline
func (t *Thread) emitSlow(kind core.EventKind, target int, line core.Line) {
	t.m.tracer.Trace(core.Event{
		Kind:   kind,
		Core:   t.id,
		Target: target,
		Line:   uint64(line),
		Cycle:  t.ticks,
	})
}
