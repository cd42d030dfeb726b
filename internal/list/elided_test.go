package list

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vtags"
)

// TestElidedFallsBackUnderSpuriousFailure is the progress guarantee the
// paper's Mode-line protocol exists for: with a pathologically small L1,
// tagged commits fail spuriously over and over, and operations must still
// complete — via the slow path.
func TestElidedFallsBackUnderSpuriousFailure(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	cfg.MemBytes = 16 << 20
	// 2 lines of L1: nearly every multi-line tag set suffers a capacity
	// eviction before its VAS.
	cfg.L1Bytes = 2 * core.LineSize
	cfg.L1Ways = 1
	m := machine.New(cfg)
	s := NewElided(m, 4)
	th := m.Thread(0)
	for k := uint64(1); k <= 60; k++ {
		if !s.Insert(th, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	for k := uint64(1); k <= 60; k++ {
		if !s.Contains(th, k) {
			t.Fatalf("key %d lost", k)
		}
	}
	if s.SlowCommits.Load() == 0 {
		t.Fatal("expected slow-path commits under a 2-line L1")
	}
	// The mode must be restored to FAST after each slow-path operation.
	if th.Load(s.ModeAddr()) != core.ModeFast {
		t.Fatal("mode left in SLOW")
	}
}

// TestElidedModeSwitchAbortsFastPath: once a thread flips the mode, an
// in-flight fast-path commit (which tagged the Mode line via the guard)
// must fail.
func TestElidedModeSwitchAbortsFastPath(t *testing.T) {
	mem := vtags.New(8<<20, 2)
	s := NewElided(mem, 0)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	s.Insert(t0, 10)

	// Hand-roll a fast-path attempt for t1, pausing before the VAS.
	pred, curr := s.vas.locate(t1, 20)
	t1.AddTag(pred, nodeBytes)
	t1.AddTag(curr, nodeBytes)
	if !s.fb.BeginFast(t1) {
		t.Fatal("guard failed while mode is FAST")
	}
	// Concurrent switch to SLOW.
	s.fb.EnterSlow(t0)
	node := newNode(t1, nodeWords, 20, curr)
	if t1.VAS(nextAddr(pred), uint64(node)) {
		t.Fatal("fast-path VAS committed after the mode switched to SLOW")
	}
	t1.ClearTagSet()
	s.fb.ExitSlow(t0)
}
