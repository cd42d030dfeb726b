package machine

import (
	"testing"

	"repro/internal/core"
)

// TestForceTagEvictionPerLine pins the cost-model side of a targeted
// eviction; the contract side (no-op on an untagged or released line, a
// latch on a held one) is coretest's cap/ForceTagEviction. Evicting a held
// tag counts one spurious eviction; a no-op eviction counts none.
func TestForceTagEvictionPerLine(t *testing.T) {
	m := New(DefaultConfig(1))
	th := m.Thread(0).(*Thread)
	a, b, c := m.Alloc(1), m.Alloc(1), m.Alloc(1)
	th.AddTag(a, core.WordSize)
	th.AddTag(b, core.WordSize)
	th.RemoveTag(a, core.WordSize) // the hand-over-hand window slides past a

	before := m.CoreStatsOf(0).SpuriousEvictions
	th.ForceTagEviction(c.Line())
	th.ForceTagEviction(a.Line())
	if got := m.CoreStatsOf(0).SpuriousEvictions; got != before {
		t.Fatalf("no-op evictions counted %d spurious evictions", got-before)
	}
	if !th.ForceTagEviction(b.Line()) {
		t.Fatal("evicting a held tag reported false")
	}
	if got := m.CoreStatsOf(0).SpuriousEvictions; got != before+1 {
		t.Fatalf("a targeted eviction counted %d spurious evictions, want 1", got-before)
	}
}

// TestSpareThreadGhost pins the ghost agent's coherence semantics: its
// stores and CASes invalidate every cached copy — evicting tags like a
// core's write — while the agent itself is uncached, uncounted and
// forbidden from tagging.
func TestSpareThreadGhost(t *testing.T) {
	m := New(DefaultConfig(2))
	if m.NumThreads() != 2 {
		t.Fatalf("NumThreads = %d, want 2 (the ghost must not be counted)", m.NumThreads())
	}
	th := m.Thread(0).(*Thread)
	sp := m.SpareThread()
	a := m.Alloc(1)

	th.Store(a, 7)
	if v := sp.Load(a); v != 7 {
		t.Fatalf("ghost Load = %d, want 7", v)
	}
	if !th.AddTag(a, core.WordSize) || !th.Validate() {
		t.Fatal("tag+validate must succeed before the ghost writes")
	}
	sp.Store(a, 8)
	if th.Validate() {
		t.Fatal("ghost store did not evict the core's tag")
	}
	if sharers, _, taggers := m.DebugLine(a.Line()); len(sharers) != 0 || len(taggers) != 0 {
		t.Fatalf("ghost store left sharers=%v taggers=%v", sharers, taggers)
	}
	if v := th.Load(a); v != 8 {
		t.Fatalf("core read %d after ghost store, want 8", v)
	}

	th.ClearTagSet()
	if !sp.CAS(a, 8, 9) || sp.CAS(a, 8, 10) {
		t.Fatal("ghost CAS semantics wrong")
	}
	if v := th.Load(a); v != 9 {
		t.Fatalf("core read %d after ghost CAS, want 9", v)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("ghost AddTag did not panic")
		}
	}()
	sp.AddTag(a, core.WordSize)
}
