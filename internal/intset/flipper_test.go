package intset_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/list"
	"repro/internal/machine"
	"repro/internal/vtags"
)

// TestFlipperConsumesNoCore is the regression test for the Mode-line
// flipper's thread accounting: a FlipMode run must request exactly
// cfg.Threads handles from the backend — one per worker — with the flipper
// riding the backend's SpareThread. It used to squat on an extra simulated
// core, which skewed every per-core statistic and left one core's lax
// clock enrolled but idle.
func TestFlipperConsumesNoCore(t *testing.T) {
	build := func(m core.Memory) intset.Set { return list.NewElided(m, 4) }
	cfg := intset.LinearizeConfig{
		Threads:      3,
		OpsPerThread: 60,
		KeyRange:     16,
		Prefill:      4,
		Seed:         7,
		FlipMode:     true,
	}

	t.Run("machine", func(t *testing.T) {
		var requested []int
		newMem := func(threads int) core.Memory {
			requested = append(requested, threads)
			mcfg := machine.DefaultConfig(threads)
			mcfg.MemBytes = 8 << 20
			m := machine.New(mcfg)
			if m.NumThreads() != threads {
				t.Fatalf("NumThreads = %d, want %d", m.NumThreads(), threads)
			}
			return m
		}
		out, err := intset.RunLinearize(newMem, build, cfg)
		if out.Inconclusive || !out.OK || err != nil {
			t.Fatalf("FlipMode run failed: %v\n%s", err, out.Explain())
		}
		if len(requested) != 1 || requested[0] != cfg.Threads {
			t.Fatalf("backend was asked for %v thread handles, want exactly [%d]: the flipper must ride the spare thread, not a core", requested, cfg.Threads)
		}
	})

	t.Run("vtags", func(t *testing.T) {
		var requested []int
		newMem := func(threads int) core.Memory {
			requested = append(requested, threads)
			return vtags.New(8<<20, threads)
		}
		out, err := intset.RunLinearize(newMem, build, cfg)
		if out.Inconclusive || !out.OK || err != nil {
			t.Fatalf("FlipMode run failed: %v\n%s", err, out.Explain())
		}
		if len(requested) != 1 || requested[0] != cfg.Threads {
			t.Fatalf("backend was asked for %v thread handles, want exactly [%d]", requested, cfg.Threads)
		}
	})
}
