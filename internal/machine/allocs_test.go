package machine

import (
	"testing"

	"repro/internal/core"
)

// The simulator's hot path — every memory and tag operation on resident
// lines — must be allocation-free: experiment harnesses execute hundreds of
// millions of simulated operations per figure, and per-op garbage was a
// measured double-digit share of host time before the lock-set and
// line-span paths were de-allocated. These budgets are load-bearing: a
// regression here is a host-time regression on every benchmark. The budget
// itself, bare and with telemetry or a reclamation domain attached, is the
// conformance suite's (internal/coretest: must/hot-path-allocates-nothing,
// cap/SetTelemetry and cap/SetReclaim).

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

// TestHotPathAllocFreeActive re-checks the core loop with lax clock
// synchronization enabled and the thread enrolled: publishing the clock and
// consulting the shared minimum must not allocate either.
func TestHotPathAllocFreeActive(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemBytes = 1 << 20
	m := New(cfg)
	th := m.threads[0]
	a := m.Alloc(core.WordsPerLine)
	th.Store(a, 1)
	th.SetActive(true)
	defer th.SetActive(false)

	assertZeroAllocs(t, "Load(active)", func() { th.Load(a) })
	assertZeroAllocs(t, "VAS(active)", func() {
		th.AddTag(a, core.LineSize)
		v := th.Load(a)
		if !th.VAS(a, v+1) {
			t.Fatal("uncontended VAS failed")
		}
		th.ClearTagSet()
	})
}
