package machine

import "repro/internal/core"

// SetTracer installs (or removes, with nil) the machine's tracer (see
// core.Tracer). Only call while quiescent.
func (m *Machine) SetTracer(tr core.Tracer) { m.tracer = tr }

// emit delivers an event if a tracer is installed. The guard is kept small
// enough to inline so that, with no tracer, hot-path call sites pay one
// predictable branch instead of a function call.
func (t *Thread) emit(kind core.EventKind, target int, line core.Line) {
	if t.m.tracer != nil {
		t.emitSlow(kind, target, line)
	}
}

func (t *Thread) emitSlow(kind core.EventKind, target int, line core.Line) {
	t.m.tracer.Trace(core.Event{
		Kind:   kind,
		Core:   t.id,
		Target: target,
		Line:   uint64(line),
		Cycle:  t.stats.Cycles,
	})
}
