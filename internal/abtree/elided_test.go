package abtree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/treeupdate"
	"repro/internal/vtags"
)

// TestElidedTreeFallsBackUnderSpuriousFailure: with a pathologically small
// L1, tagged windows are spuriously evicted constantly; the LLX/SCX slow
// path must carry the operations, and the result must still be a valid
// tree.
func TestElidedTreeFallsBackUnderSpuriousFailure(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 64 << 20
	cfg.L1Bytes = 4 * core.LineSize // smaller than one tagging window
	cfg.L1Ways = 1
	m := machine.New(cfg)
	s := NewElided(m, 2, 4, 3)
	th := m.Thread(0)
	for k := uint64(1); k <= 120; k++ {
		if !s.Insert(th, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	for k := uint64(1); k <= 120; k += 3 {
		if !s.Delete(th, k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	for k := uint64(1); k <= 120; k++ {
		want := k%3 != 1
		if s.Contains(th, k) != want {
			t.Fatalf("key %d: membership wrong", k)
		}
	}
	if s.SlowCommits.Load() == 0 {
		t.Fatal("expected slow-path commits under a 4-line L1")
	}
	if err := s.CheckInvariants(th); err != nil {
		t.Fatalf("tree invalid after mixed-path updates: %v", err)
	}
	if th.Load(s.ModeAddr()) != core.ModeFast {
		t.Fatal("slow count not drained")
	}
}

// TestElidedTreeSlowEntryAbortsFastCommit: a slow-path entry between a
// fast attempt's guard and its IAS must abort the IAS.
func TestElidedTreeSlowEntryAbortsFastCommit(t *testing.T) {
	mem := vtags.New(64<<20, 2)
	s := NewElided(mem, 2, 4, 0)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	s.Insert(t0, 10)

	// Hand-roll a fast insert attempt for t1 up to (but excluding) the IAS.
	a := attempt{tree: &s.tree, th: t1, st: s.fast.On(t1)}
	a.st.Begin()
	_, p, l, _, idxL, ok := a.locate(20)
	if !ok || !a.st.Ready() {
		t.Fatal("guard failed in FAST mode")
	}
	// Slow entry lands before the commit.
	s.fb.EnterSlow(t0)
	repl := s.ly.writeNode(t1, nodeData{leaf: true, keys: []uint64{10, 20}})
	if a.st.Commit(treeupdate.Change{Owner: p, Slot: s.ly.ptrAddr(p, idxL), Old: l, New: repl}) {
		t.Fatal("fast IAS committed despite in-flight slow operation")
	}
	a.st.End()
	if t1.TagCount() != 0 {
		t.Fatal("a failed commit left tags behind")
	}
	s.fb.ExitSlow(t0)
}
