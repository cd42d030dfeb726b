package list

import (
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/schedexplore"
	"repro/internal/schedfuzz"
	"repro/internal/vtags"
)

// TestLinearizableMachinePressure checks the tagged list variants on the
// cycle-accurate machine backend under MaxTags pressure: the tag budget is
// exactly the hand-over-hand window (3 lines), the L1 is shrunk until
// capacity evictions are routine, and the lax-clock sync window is
// seed-jittered. The associativity stays at 4 so a traversal only rarely
// self-evicts its own tagged window — the VAS and HoH lists retry evicted
// windows forever (no fallback path), so a cache that *always* evicts the
// window would livelock by design rather than expose a bug.
func TestLinearizableMachinePressure(t *testing.T) {
	newMem := func(seed int64) func(threads int) core.Memory {
		return func(threads int) core.Memory {
			cfg := machine.DefaultConfig(threads)
			cfg.MemBytes = 8 << 20
			cfg.MaxTags = 3
			cfg.L1Bytes = 2 << 10
			cfg.L1Ways = 4
			cfg.L2Bytes = 8 << 10
			schedfuzz.JitterSyncWindow(&cfg, seed)
			return machine.New(cfg)
		}
	}
	variants := []struct {
		name  string
		build func(core.Memory) intset.Set
	}{
		{"vas", func(m core.Memory) intset.Set { return NewVAS(m) }},
		{"hoh", func(m core.Memory) intset.Set { return NewHoH(m) }},
		{"elided", func(m core.Memory) intset.Set { return NewElided(m, 4) }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			seed := int64(11)
			fuzz := schedfuzz.Default(seed)
			intset.CheckLinearizable(t, newMem(seed), v.build, intset.LinearizeConfig{
				Threads:      4,
				OpsPerThread: intset.LinearizeOps(150),
				KeyRange:     12,
				Prefill:      6,
				Seed:         seed,
				Fuzz:         &fuzz,
				FlipMode:     true,
			})
		})
	}
}

// TestExploreLinearizableMachine drives the tagged list variants through
// the cycle-level schedule explorer: the controller serializes the cores,
// enumerates interleavings at every gate point (op boundaries and the
// intra-operation directory-locking windows) and injects targeted tag
// evictions, checking each execution's history. A violation fails with the
// replayable choice sequence and machine trace.
func TestExploreLinearizableMachine(t *testing.T) {
	newMachine := func(threads int) *machine.Machine {
		cfg := machine.DefaultConfig(threads)
		cfg.MemBytes = 8 << 20
		return machine.New(cfg)
	}
	variants := []struct {
		name  string
		build func(m core.Memory) intset.Set
	}{
		{"vas", func(m core.Memory) intset.Set { return NewVAS(m) }},
		{"hoh", func(m core.Memory) intset.Set { return NewHoH(m) }},
	}
	modes := []schedexplore.Mode{schedexplore.RandomWalk, schedexplore.PCT, schedexplore.StrategyDPOR}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range modes {
				intset.CheckExploreLinearizable(t, newMachine, v.build, intset.ExploreConfig{
					Threads:      3,
					OpsPerThread: 12,
					KeyRange:     8,
					Prefill:      4,
					Seed:         21,
					Mode:         mode,
					Executions:   6,
					// Bounds DPOR branches that park a core on a busy
					// hand-over-hand lock (the spin itself is schedulable).
					MaxDecisions: 2000,
					EvictPerMil:  100,
				})
			}
		})
	}
}

// TestCheckerCatchesSkippedValidation runs the VAS list on a deliberately
// broken backend whose VAS commits without validating — the exact failure
// mode MemTags validation exists to prevent — and requires the checker to
// reject the resulting history. This is the end-to-end proof that the
// correctness tooling can see a lost update, not merely that the
// structures avoid producing one.
func TestCheckerCatchesSkippedValidation(t *testing.T) {
	caught := false
	for seed := int64(1); seed <= 6 && !caught; seed++ {
		fuzz := schedfuzz.Aggressive(seed)
		// Only the history verdict is read: the broken list may also fail
		// the structural check.
		out, _ := intset.RunLinearize(
			func(threads int) core.Memory {
				return schedfuzz.WrapSkipValidation(vtags.New(16<<20, threads))
			},
			func(m core.Memory) intset.Set { return NewVAS(m) },
			intset.LinearizeConfig{
				Threads:      4,
				OpsPerThread: 400,
				KeyRange:     2,
				Seed:         seed,
				Fuzz:         &fuzz,
			})
		if !out.OK && !out.Inconclusive {
			caught = true
			if len(out.Explain()) == 0 {
				t.Fatal("violation found but counterexample empty")
			}
		}
	}
	if !caught {
		t.Fatal("checker never caught the skipped-validation list across 6 seeds")
	}
}
