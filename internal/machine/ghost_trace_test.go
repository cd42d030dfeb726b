package machine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// eventLog keeps every event in full, its line as an offset from base
// (validations name no line).
type eventLog struct {
	base   core.Line
	events []string
}

func (r *eventLog) Trace(e core.Event) {
	line := fmt.Sprintf(" +%d", core.Line(e.Line)-r.base)
	if e.Kind == core.EvValidateOK || e.Kind == core.EvValidateFail {
		line = ""
	}
	r.events = append(r.events, fmt.Sprintf("%v core=%d target=%d%s @%d", e.Kind, e.Core, e.Target, line, e.Cycle))
}

// ghostEvents is what the machine reported for TestGhostEventStream's
// script at commit 4d85891, before the backends' tracer, telemetry and
// reclamation hooks moved into one observer. The ghost reports as core -1
// at cycle 0; its store over a tagged line evicts the tag and invalidates
// every sharer. Do not edit a line to make the test pass.
var ghostEvents = []string{
	"MemFill core=0 target=-1 +0 @102",
	"L1Hit core=1 target=-1 +0 @55",
	"TagAdd core=1 target=-1 +0 @55",
	"TagAdd core=1 target=-1 +1 @155",
	"TagAdd core=0 target=-1 +1 @142",
	"ValidateOK core=1 target=-1 @156",
	"Invalidation core=-1 target=0 +0 @0",
	"TagEvicted core=-1 target=1 +0 @0",
	"Invalidation core=-1 target=1 +0 @0",
	"ValidateFail core=1 target=-1 @157",
	"VASFail core=1 target=-1 +1 @158",
	"TagEvicted core=-1 target=0 +1 @0",
	"Invalidation core=-1 target=0 +1 @0",
	"Invalidation core=-1 target=1 +1 @0",
	"ValidateFail core=0 target=-1 @143",
	"IASFail core=0 target=-1 +0 @144",
	"MemFill core=0 target=-1 +0 @246",
}

// TestGhostEventStream pins the full event stream of a short two-core
// script in which a SpareThread writes over lines the cores share and tag:
// the cores' fills, hits and tag events with their cycles, and the ghost's
// TagEvicted and Invalidation messages.
func TestGhostEventStream(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemBytes = 1 << 20
	m := New(cfg)
	t0, t1 := m.Thread(0), m.Thread(1)
	sp := m.SpareThread()
	a := m.Alloc(2 * core.WordsPerLine)
	b := a + core.LineSize
	log := &eventLog{base: a.Line()}
	m.SetTracer(log)

	t0.Store(a, 1)
	t1.Load(a)
	t1.Load(a)
	t1.AddTag(a, 2*core.LineSize)
	t0.AddTag(b, core.WordSize)
	t1.Validate()
	sp.Store(a, 2) // evicts t1's tag on a; t0 and t1 both lose the line
	t1.Validate()
	t1.VAS(b, 3)
	t1.ClearTagSet()
	sp.CAS(b, 0, 4) // evicts t0's tag on b, invalidates t1's copy
	t0.Validate()
	t0.IAS(a, 5)
	t0.ClearTagSet()
	t0.Store(a, 6)
	sp.Load(a)
	m.SetTracer(nil)

	if !slices.Equal(log.events, ghostEvents) {
		t.Errorf("event stream moved:\n got %d events:\n\t%q\nwant %d events:\n\t%q",
			len(log.events), log.events, len(ghostEvents), ghostEvents)
	}
}
