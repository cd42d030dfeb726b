package abtree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/schedexplore"
	"repro/internal/schedfuzz"
	"repro/internal/vtags"
)

// TestLinearizableVTags checks every (a,b)-tree flavour's history under
// schedule fuzzing on the versioned-emulation backend, including the
// elided composition's fast/slow transitions (Mode-line flips, at fallback
// threshold 4). The set contract's must/linearizable runs the catalogue's
// trees on 16 keys; on 24 the (4,8) trees split and merge more, which is
// what a skipped post-update cleanup needs to show.
func TestLinearizableVTags(t *testing.T) {
	variants := []struct {
		name  string
		build func(core.Memory) intset.Set
	}{
		{"llx", func(m core.Memory) intset.Set { return NewLLX(m, 4, 8) }},
		{"hoh", func(m core.Memory) intset.Set { return NewHoH(m, 4, 8) }},
		{"elided", func(m core.Memory) intset.Set { return NewElided(m, 4, 8, 4) }},
	}
	newMem := func(threads int) core.Memory { return vtags.New(16<<20, threads) }
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 2; seed++ {
				fuzz := schedfuzz.Default(seed)
				intset.CheckLinearizable(t, newMem, v.build, intset.LinearizeConfig{
					Threads:      4,
					OpsPerThread: intset.LinearizeOps(300),
					KeyRange:     24,
					Prefill:      12,
					Seed:         seed,
					Fuzz:         &fuzz,
					FlipMode:     true,
				})
			}
		})
	}
}

// TestExploreLinearizableMachine drives the HoH (a,b)-tree through the
// cycle-level schedule explorer: every execution serializes the cores,
// enumerates interleavings at op boundaries and intra-operation
// directory-locking windows, injects targeted tag evictions, and checks
// the recorded history. A violation fails with the replayable choice
// sequence and machine trace. At (2,4) this workload splits and merges
// nodes; the set contract's explorer cases, on the catalogue's (4,8)
// trees, never do.
func TestExploreLinearizableMachine(t *testing.T) {
	newMachine := func(threads int) *machine.Machine {
		cfg := machine.DefaultConfig(threads)
		cfg.MemBytes = 8 << 20
		return machine.New(cfg)
	}
	build := func(m core.Memory) intset.Set { return NewHoH(m, 2, 4) }
	for _, mode := range []schedexplore.Mode{schedexplore.RandomWalk, schedexplore.PCT} {
		intset.CheckExploreLinearizable(t, newMachine, build, intset.ExploreConfig{
			Threads:      3,
			OpsPerThread: 10,
			KeyRange:     8,
			Prefill:      4,
			Seed:         22,
			Mode:         mode,
			Executions:   5,
			EvictPerMil:  100,
		})
	}
}

// TestLinearizableMachinePressure checks the tagged tree flavours on the
// machine backend with the tag budget squeezed to just above the
// hand-over-hand window ((2,4) nodes span 2 lines; the window is 4 nodes,
// so 8 lines, plus one for the elided Mode line), a small L1 for genuine
// capacity evictions, and a seed-jittered sync window.
//
// The L1 must stay comfortably above the 8-line window: every update
// allocates replacement nodes, so traversals stream fresh lines through
// the cache and occasionally evict a tagged line (the pressure we want) —
// but a cache so small that *every* locate self-evicts its window would
// livelock the pure HoH tree, which by design has no fallback path (that
// is the elided variant's job).
func TestLinearizableMachinePressure(t *testing.T) {
	newMem := func(seed int64) func(threads int) core.Memory {
		return func(threads int) core.Memory {
			cfg := machine.DefaultConfig(threads)
			cfg.MemBytes = 8 << 20
			cfg.MaxTags = 9
			cfg.L1Bytes = 4 << 10
			cfg.L1Ways = 4
			cfg.L2Bytes = 16 << 10
			schedfuzz.JitterSyncWindow(&cfg, seed)
			return machine.New(cfg)
		}
	}
	variants := []struct {
		name  string
		build func(core.Memory) intset.Set
	}{
		{"hoh", func(m core.Memory) intset.Set { return NewHoH(m, 2, 4) }},
		{"elided", func(m core.Memory) intset.Set { return NewElided(m, 2, 4, 4) }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			seed := int64(5)
			fuzz := schedfuzz.Default(seed)
			intset.CheckLinearizable(t, newMem(seed), v.build, intset.LinearizeConfig{
				Threads:      4,
				OpsPerThread: intset.LinearizeOps(150),
				KeyRange:     16,
				Prefill:      8,
				Seed:         seed,
				Fuzz:         &fuzz,
				FlipMode:     true,
			})
		})
	}
}
