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
// regression here is a host-time regression on every benchmark. The same
// budget with telemetry or a reclamation domain attached is the conformance
// suite's (internal/coretest, cap/SetTelemetry and cap/SetReclaim).

func newAllocTestMachine(t *testing.T) (*Thread, core.Addr) {
	t.Helper()
	cfg := DefaultConfig(2)
	cfg.MemBytes = 1 << 20
	cfg.SyncWindowCycles = 0 // single-goroutine: no lax-clock parking
	m := New(cfg)
	th := m.threads[0]
	a := m.Alloc(core.WordsPerLine * 4)
	// Warm the lines so the ops below run the resident path: word/directory
	// chunks installed, lines owned in L1.
	for i := 0; i < 4; i++ {
		th.Store(a+core.Addr(i*core.LineSize), uint64(i))
	}
	return th, a
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

func TestHotPathAllocFree(t *testing.T) {
	th, a := newAllocTestMachine(t)

	assertZeroAllocs(t, "Load", func() { th.Load(a) })
	assertZeroAllocs(t, "Store", func() { th.Store(a, 42) })
	assertZeroAllocs(t, "CAS", func() {
		v := th.Load(a)
		th.CAS(a, v, v+1)
	})
	assertZeroAllocs(t, "AddTag+Validate+ClearTagSet", func() {
		if !th.AddTag(a, core.LineSize*2) {
			t.Fatal("AddTag failed")
		}
		if !th.Validate() {
			t.Fatal("Validate failed")
		}
		th.ClearTagSet()
	})
	assertZeroAllocs(t, "RemoveTag", func() {
		th.AddTag(a, core.LineSize)
		th.RemoveTag(a, core.LineSize)
		th.ClearTagSet()
	})
	assertZeroAllocs(t, "VAS", func() {
		th.AddTag(a, core.LineSize)
		v := th.Load(a)
		if !th.VAS(a, v+1) {
			t.Fatal("uncontended VAS failed")
		}
		th.ClearTagSet()
	})
	assertZeroAllocs(t, "IAS", func() {
		th.AddTag(a, core.LineSize)
		v := th.Load(a)
		if !th.IAS(a, v+1) {
			t.Fatal("uncontended IAS failed")
		}
		th.ClearTagSet()
	})
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
