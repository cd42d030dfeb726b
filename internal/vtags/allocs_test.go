package vtags

import (
	"testing"

	"repro/internal/core"
	"repro/internal/reclaim"
	"repro/internal/telemetry"
)

// The emulation exists to stress-test structures at native speed, so its
// hot path must stay allocation-free on resident lines: the commit lock
// set and the tag set reuse preallocated per-thread buffers, and line
// state chunks are installed once on first touch.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

func TestHotPathAllocFree(t *testing.T) {
	m := New(1<<20, 2)
	th := m.threads[0]
	a := m.Alloc(core.WordsPerLine * 4)
	for i := 0; i < 4; i++ {
		th.Store(a+core.Addr(i*core.LineSize), uint64(i))
	}

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

// TestHotPathAllocFreeWithTelemetry re-runs the budget with telemetry
// recording enabled, matching the machine backend's guarantee.
func TestHotPathAllocFreeWithTelemetry(t *testing.T) {
	m := New(1<<20, 2)
	m.SetTelemetry(telemetry.NewSet(m.NumThreads()))
	th := m.threads[0]
	a := m.Alloc(core.WordsPerLine * 4)
	for i := 0; i < 4; i++ {
		th.Store(a+core.Addr(i*core.LineSize), uint64(i))
	}

	assertZeroAllocs(t, "Load+telemetry", func() { th.Load(a) })
	assertZeroAllocs(t, "AddTag+Validate+ClearTagSet+telemetry", func() {
		if !th.AddTag(a, core.LineSize*2) {
			t.Fatal("AddTag failed")
		}
		if !th.Validate() {
			t.Fatal("Validate failed")
		}
		th.ClearTagSet()
	})
	assertZeroAllocs(t, "RemoveTag+telemetry", func() {
		th.AddTag(a, core.LineSize)
		th.RemoveTag(a, core.LineSize)
		th.ClearTagSet()
	})
	assertZeroAllocs(t, "VAS+telemetry", func() {
		th.AddTag(a, core.LineSize)
		v := th.Load(a)
		if !th.VAS(a, v+1) {
			t.Fatal("uncontended VAS failed")
		}
		th.ClearTagSet()
	})
	assertZeroAllocs(t, "IAS+telemetry", func() {
		th.AddTag(a, core.LineSize)
		v := th.Load(a)
		if !th.IAS(a, v+1) {
			t.Fatal("uncontended IAS failed")
		}
		th.ClearTagSet()
	})
}

// TestHotPathAllocFreeWithReclaim re-runs the tag-op budget with a
// reclamation domain attached: announcing and retracting tag lines uses the
// handle's preallocated slot table, so wiring reclamation must not cost the
// hot path an allocation.
func TestHotPathAllocFreeWithReclaim(t *testing.T) {
	m := New(1<<20, 2)
	m.SetReclaim(reclaim.NewDomainFor(m))
	th := m.threads[0]
	a := m.Alloc(core.WordsPerLine * 4)
	for i := 0; i < 4; i++ {
		th.Store(a+core.Addr(i*core.LineSize), uint64(i))
	}

	assertZeroAllocs(t, "AddTag+Validate+ClearTagSet+reclaim", func() {
		if !th.AddTag(a, core.LineSize*2) {
			t.Fatal("AddTag failed")
		}
		if !th.Validate() {
			t.Fatal("Validate failed")
		}
		th.ClearTagSet()
	})
	assertZeroAllocs(t, "RemoveTag+reclaim", func() {
		th.AddTag(a, core.LineSize)
		th.RemoveTag(a, core.LineSize)
		th.ClearTagSet()
	})
	assertZeroAllocs(t, "VAS+reclaim", func() {
		th.AddTag(a, core.LineSize)
		v := th.Load(a)
		if !th.VAS(a, v+1) {
			t.Fatal("uncontended VAS failed")
		}
		th.ClearTagSet()
	})
	assertZeroAllocs(t, "IAS+reclaim", func() {
		th.AddTag(a, core.LineSize)
		v := th.Load(a)
		if !th.IAS(a, v+1) {
			t.Fatal("uncontended IAS failed")
		}
		th.ClearTagSet()
	})
}
