package list

import (
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/vtags"
)

func TestElidedBasicOps(t *testing.T) {
	mem := vtags.New(8<<20, 1)
	s := NewElided(mem, 0)
	intset.CheckSequential(t, mem, s, 1500, 64, 13)
}

func TestElidedConcurrent(t *testing.T) {
	mem := vtags.New(16<<20, 4)
	s := NewElided(mem, 0)
	intset.CheckMixedConcurrent(t, mem, s, 4, 250, 24)
}

func TestElidedConcurrentOnMachine(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	s := NewElided(m, 0)
	intset.CheckMixedConcurrent(t, m, s, 4, 150, 12)
	if s.FastCommits.Load() == 0 {
		t.Fatal("no update ever committed on the fast path")
	}
}

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

// TestElidedMixedPathsAgree: operations completing on different paths
// still form one linearizable set (fast VAS and slow CAS are compatible on
// the shared marked-node layout).
func TestElidedMixedPathsAgree(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	cfg.MemBytes = 16 << 20
	cfg.L1Bytes = 8 * core.LineSize // small L1: frequent fallbacks
	cfg.L1Ways = 2
	m := machine.New(cfg)
	s := NewElided(m, 2)
	intset.CheckMixedConcurrent(t, m, s, 4, 120, 10)
	if s.SlowCommits.Load() == 0 || s.FastCommits.Load() == 0 {
		t.Skipf("want both paths exercised; fast=%d slow=%d",
			s.FastCommits.Load(), s.SlowCommits.Load())
	}
}
