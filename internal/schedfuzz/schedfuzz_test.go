package schedfuzz

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vtags"
)

func TestForcedEvictionFailsValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mem  core.Memory
	}{
		{"vtags", vtags.New(1<<20, 1)},
		{"machine", machine.New(machine.DefaultConfig(1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Evict on every opportunity: the very next Validate after an
			// AddTag must fail.
			cfg := Config{Seed: 1, EvictPerMil: 1000}
			mem := Wrap(tc.mem, cfg)
			th := mem.Thread(0)
			a := mem.Alloc(1)
			th.Store(a, 7)
			if !th.AddTag(a, core.WordSize) {
				t.Fatal("AddTag failed")
			}
			if th.Validate() {
				t.Fatal("Validate passed despite forced eviction")
			}
			if th.VAS(a, 9) {
				t.Fatal("VAS committed despite forced eviction")
			}
			th.ClearTagSet()
			// After clearing, a fresh tag with no injected eviction
			// (TagCount is checked before injecting, but every forwarded op
			// evicts again) — so just confirm the value never changed.
			if got := th.Load(a); got != 7 {
				t.Fatalf("value changed to %d despite failed VAS", got)
			}
		})
	}
}

func TestInjectionStreamIsSeeded(t *testing.T) {
	// Two wrappers with the same seed make identical injection decisions:
	// drive a deterministic op sequence and compare eviction latch state.
	run := func(seed int64) []bool {
		mem := Wrap(vtags.New(1<<20, 1), Config{Seed: seed, EvictPerMil: 300})
		th := mem.Thread(0)
		a := mem.Alloc(1)
		res := make([]bool, 0, 64)
		for i := 0; i < 64; i++ {
			th.AddTag(a, core.WordSize)
			res = append(res, th.Validate())
			th.ClearTagSet()
		}
		return res
	}
	a, b, c := run(42), run(42), run(43)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical injection streams (suspicious)")
	}
}

func TestSkipValidationCommitsBlindly(t *testing.T) {
	inner := vtags.New(1<<20, 2)
	mem := WrapSkipValidation(inner)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	a := mem.Alloc(1)
	t0.Store(a, 1)
	t0.AddTag(a, core.WordSize)
	t1.Store(a, 2) // conflicting write: a real VAS must now fail
	if !t0.Validate() {
		t.Fatal("broken backend's Validate should always pass")
	}
	if !t0.VAS(a, 3) {
		t.Fatal("broken backend's VAS should always commit")
	}
	if got := t0.Load(a); got != 3 {
		t.Fatalf("VAS did not store: got %d", got)
	}
	t0.ClearTagSet()
}

func TestJitterSyncWindowInRange(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := int64(0); seed < 32; seed++ {
		cfg := machine.DefaultConfig(2)
		JitterSyncWindow(&cfg, seed)
		if cfg.SyncWindowCycles < 64 || cfg.SyncWindowCycles >= 4096 {
			t.Fatalf("seed %d: window %d out of range", seed, cfg.SyncWindowCycles)
		}
		seen[cfg.SyncWindowCycles] = true
	}
	if len(seen) < 8 {
		t.Fatalf("windows barely vary across seeds: %v", seen)
	}
}

func TestModeFlipperRestsAtFast(t *testing.T) {
	mem := vtags.New(1<<20, 2)
	fb := core.NewFallback(mem)
	stop := StartModeFlipper(mem.Thread(1), fb.ModeAddr(), 7)
	// Run a few fallback operations concurrently with the flipper.
	th := mem.Thread(0)
	slowRuns := 0
	for i := 0; i < 200; i++ {
		fb.Run(th, fb.Threshold, func() bool { return false }, func() { slowRuns++ })
	}
	stop()
	if slowRuns != 200 {
		t.Fatalf("slow path ran %d times, want 200", slowRuns)
	}
	if got := th.Load(fb.ModeAddr()); got != core.ModeFast {
		t.Fatalf("mode line rests at %d, want %d", got, core.ModeFast)
	}
}
