package machine

type Tracer interface{}

type Machine struct{ tr Tracer }

// SetTracer is a hook written a second time, beside tagobs.Hooks.
func (m *Machine) SetTracer(tr Tracer) { m.tr = tr }
