package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
)

func TestTraceCollectorWriteJSON(t *testing.T) {
	c := NewTraceCollector(2)
	c.OpSpan(0, "Insert", 100, 250)
	c.OpSpan(1, "Contains", 120, 180)
	c.Trace(core.Event{Kind: core.EvTagAdd, Core: 0, Target: -1, Line: 17, Cycle: 110})
	c.Trace(core.Event{Kind: core.EvInvalidation, Core: 0, Target: 1, Line: 17, Cycle: 200})
	c.Trace(core.Event{Kind: core.EvTagEvicted, Core: -1, Target: 1, Line: 9, Cycle: 0}) // ghost

	if c.Events() != 3 {
		t.Fatalf("Events() = %d, want 3", c.Events())
	}

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			ID   int     `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	// Monotonic ts per (pid, tid) track — what the CI validator enforces.
	last := map[[2]int]float64{}
	phs := map[string]int{}
	flows := map[int][]string{}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "" {
			t.Fatalf("event %q has no phase", ev.Name)
		}
		phs[ev.Ph]++
		key := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < last[key] {
			t.Fatalf("ts regressed on track %v: %v < %v", key, ev.Ts, last[key])
		}
		last[key] = ev.Ts
		if ev.Ph == "s" || ev.Ph == "f" {
			flows[ev.ID] = append(flows[ev.ID], ev.Ph)
		}
	}
	for _, want := range []string{"M", "X", "i", "s", "f"} {
		if phs[want] == 0 {
			t.Errorf("no %q events emitted", want)
		}
	}
	// Every flow id has a start before its finish.
	for id, seq := range flows {
		if len(seq) != 2 || seq[0] != "s" || seq[1] != "f" {
			t.Errorf("flow %d: sequence %v, want [s f]", id, seq)
		}
	}

	// The machine scales to 512 cores; track names must too.
	wide := NewTraceCollector(128)
	wide.Trace(core.Event{Kind: core.EvTagAdd, Core: 127, Target: -1, Line: 1, Cycle: 1})
	buf.Reset()
	if err := wide.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"core 127"`)) {
		t.Error("128-core export does not name the track of core 127")
	}
}

func TestTraceCollectorGhostOverflow(t *testing.T) {
	c := NewTraceCollector(1)
	c.Trace(core.Event{Kind: core.EvInvalidation, Core: -1, Target: 0, Line: 1, Cycle: 5})
	if len(c.overflow) != 1 {
		t.Fatal("ghost event not routed to the overflow buffer")
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}
