package machine

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// recordingTracer captures events for assertions.
type recordingTracer struct {
	mu     sync.Mutex
	counts map[core.EventKind]int
}

func newRecordingTracer() *recordingTracer {
	return &recordingTracer{counts: map[core.EventKind]int{}}
}

func (r *recordingTracer) Trace(e core.Event) {
	r.mu.Lock()
	r.counts[e.Kind]++
	r.mu.Unlock()
}

func (r *recordingTracer) count(k core.EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[k]
}

func TestTracerSeesCoherenceStory(t *testing.T) {
	m := testMachine(2)
	tr := newRecordingTracer()
	m.SetTracer(tr)
	t0, t1 := m.Thread(0), m.Thread(1)
	a := m.Alloc(1)

	t0.Store(a, 1) // MemFill
	t1.AddTag(a, 8)
	t1.Load(a)
	t1.Validate()  // ValidateOK
	t0.Store(a, 2) // Invalidation + TagEvicted at core 1
	t1.Validate()  // ValidateFail
	t1.ClearTagSet()
	t1.AddTag(a, 8)
	t1.Load(a)
	if !t1.VAS(a, 3) { // CommitVAS
		t.Fatal("VAS failed")
	}
	t1.ClearTagSet()

	wants := map[core.EventKind]int{
		core.EvMemFill:      1,
		core.EvTagAdd:       2,
		core.EvValidateOK:   1,
		core.EvValidateFail: 1,
		core.EvTagEvicted:   1,
		core.EvCommitVAS:    1,
	}
	for k, min := range wants {
		if got := tr.count(k); got < min {
			t.Errorf("%v: %d events, want >= %d", k, got, min)
		}
	}
	if tr.count(core.EvInvalidation) == 0 {
		t.Error("no invalidation events recorded")
	}

	// Removing the tracer stops delivery.
	m.SetTracer(nil)
	before := tr.count(core.EvL1Hit)
	t0.Load(a)
	if tr.count(core.EvL1Hit) != before {
		t.Error("events delivered after tracer removal")
	}
}

func TestEventKindNames(t *testing.T) {
	for k := core.EvL1Hit; k <= core.EvCommitIAS; k++ {
		if k.String() == "Unknown" {
			t.Fatalf("event kind %d unnamed", k)
		}
	}
	if core.EventKind(99).String() != "Unknown" {
		t.Fatal("out-of-range kind not Unknown")
	}
}
