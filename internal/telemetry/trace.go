package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
)

// Perfetto export: a backend's core.Tracer event stream plus per-op
// begin/end spans, converted to the Chrome trace-event JSON format that
// ui.perfetto.dev (and chrome://tracing) load directly. Each simulated core
// is one track; structure operations are duration slices on their core's
// track; tag/validate events are instants; coherence messages (invalidation
// and remote tag eviction) are flow arrows from the sending core's track to
// the receiving core's.
//
// Collection is buffered per core — the emitting goroutine is always the
// core's own goroutine, so per-core buffers need no locking — and the
// export pass sorts, links and marshals. Tracing is an explicitly
// non-measured mode: collection allocates (growing buffers), unlike the
// histogram/sampler path.

// opSpan is one structure operation's begin/end on a core's track.
type opSpan struct {
	name       string
	start, end uint64
}

// TraceCollector buffers events and op spans for export. Create one with
// NewTraceCollector, install it as the backend's tracer (it is a
// core.Tracer), feed op spans from the workload driver, and WriteJSON at
// quiescence.
type TraceCollector struct {
	perCore [][]core.Event // single-writer: core i's goroutine appends to perCore[i]
	spans   [][]opSpan

	// mu guards the overflow buffers for agents outside the core set (the
	// ghost coherence agent reports core -1).
	mu       sync.Mutex
	overflow []core.Event
}

// NewTraceCollector creates a collector for n cores.
func NewTraceCollector(n int) *TraceCollector {
	return &TraceCollector{
		perCore: make([][]core.Event, n),
		spans:   make([][]opSpan, n),
	}
}

// Trace records one backend event (core.Tracer). Events with Core in
// [0, n) are buffered without locking (the emitter is that core's
// goroutine); others (the ghost agent's core -1) take the overflow mutex.
func (c *TraceCollector) Trace(ev core.Event) {
	if ev.Core >= 0 && ev.Core < len(c.perCore) {
		c.perCore[ev.Core] = append(c.perCore[ev.Core], ev)
		return
	}
	c.mu.Lock()
	c.overflow = append(c.overflow, ev)
	c.mu.Unlock()
}

// OpSpan records one structure operation's duration on core's track, in
// backend clock units. Must be called from the goroutine driving core.
func (c *TraceCollector) OpSpan(core int, name string, start, end uint64) {
	if core < 0 || core >= len(c.spans) {
		return
	}
	if end < start {
		end = start
	}
	c.spans[core] = append(c.spans[core], opSpan{name: name, start: start, end: end})
}

// Events returns the number of buffered backend events.
func (c *TraceCollector) Events() int {
	n := len(c.overflow)
	for _, b := range c.perCore {
		n += len(b)
	}
	return n
}

// jsonEvent is one Chrome trace-event object. Field set per the trace
// event format spec; ts/dur are microseconds — we map one simulated cycle
// (or vtags tick) to one microsecond.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object form of a trace ({"traceEvents": [...]}),
// which Perfetto accepts and which leaves room for metadata.
type traceFile struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

const tracePid = 1

// tidFor maps a core id to its track: core i is tid i+1, the ghost agent
// (core -1) is tid 0.
func tidFor(core int) int { return core + 1 }

// threadName is the metadata event that labels one track.
func threadName(pid, tid int, name string) jsonEvent {
	return jsonEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	}
}

// coreTrack labels core i's machine-domain track.
func coreTrack(i int) jsonEvent {
	return threadName(tracePid, tidFor(i), "core "+strconv.Itoa(i))
}

// writeTrace is the tail both exporters share: sort globally by timestamp
// with metadata first — so timestamps are monotonic on every track, the
// property bench/tracecheck verifies — and encode. The sort is stable, so
// same-ts events keep their emission order, which keeps a flow start before
// its finish when both land on the same microsecond.
func writeTrace(w io.Writer, evs []jsonEvent) error {
	sort.SliceStable(evs, func(i, j int) bool {
		mi, mj := evs[i].Ph == "M", evs[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return evs[i].Ts < evs[j].Ts
	})
	return json.NewEncoder(w).Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ns"})
}

// WriteJSON converts the buffered events and spans to Chrome trace-event
// JSON and writes it.
func (c *TraceCollector) WriteJSON(w io.Writer) error {
	var evs []jsonEvent

	// Track-name metadata so Perfetto labels each core.
	for i := range c.perCore {
		evs = append(evs, coreTrack(i))
	}
	if len(c.overflow) > 0 {
		evs = append(evs, threadName(tracePid, tidFor(-1), "ghost agent"))
	}

	// Op spans as complete ("X") duration events.
	for i := range c.spans {
		for _, sp := range c.spans[i] {
			evs = append(evs, jsonEvent{
				Name: sp.name, Cat: "op", Ph: "X",
				Ts: sp.start, Dur: sp.end - sp.start,
				Pid: tracePid, Tid: tidFor(i),
			})
		}
	}

	// Backend events: instants everywhere; cross-core messages additionally
	// get a flow arrow from sender track to receiver track.
	flowID := 0
	emit := func(ev core.Event) {
		name := ev.Kind.String()
		evs = append(evs, jsonEvent{
			Name: name, Cat: "coherence", Ph: "i",
			Ts: ev.Cycle, Pid: tracePid, Tid: tidFor(ev.Core),
			Args: map[string]any{"line": ev.Line},
		})
		if ev.Target >= 0 {
			flowID++
			evs = append(evs, jsonEvent{
				Name: name, Cat: "coherence", Ph: "s",
				Ts: ev.Cycle, Pid: tracePid, Tid: tidFor(ev.Core), ID: flowID,
			})
			evs = append(evs, jsonEvent{
				Name: name, Cat: "coherence", Ph: "f", BP: "e",
				Ts: ev.Cycle + 1, Pid: tracePid, Tid: tidFor(ev.Target), ID: flowID,
			})
		}
	}
	for i := range c.perCore {
		for _, ev := range c.perCore[i] {
			emit(ev)
		}
	}
	for _, ev := range c.overflow {
		emit(ev)
	}
	return writeTrace(w, evs)
}
