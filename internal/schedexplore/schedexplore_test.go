package schedexplore_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/machine"
	"repro/internal/schedexplore"
)

func smallMachine(cores int) *machine.Machine {
	cfg := machine.DefaultConfig(cores)
	cfg.MemBytes = 1 << 20
	return machine.New(cfg)
}

// listSetup builds a fresh HoH list workload: each worker runs a
// deterministic op sequence and appends its results to out[w]. The
// returned factory is deterministic, as Explore requires.
func listSetup(workers, ops int, out [][]bool) func() schedexplore.Setup {
	return func() schedexplore.Setup {
		m := smallMachine(workers)
		s := list.NewHoH(m)
		th0 := m.Thread(0)
		for k := uint64(1); k <= 4; k++ {
			s.Insert(th0, k)
		}
		for w := range out {
			out[w] = out[w][:0]
		}
		return schedexplore.Setup{
			Machine: m,
			Workers: workers,
			Body: func(w int, th core.Thread) {
				for i := 0; i < ops; i++ {
					k := uint64(1 + (i*3+w)%8)
					var ok bool
					switch (i + w) % 3 {
					case 0:
						ok = s.Insert(th, k)
					case 1:
						ok = s.Delete(th, k)
					default:
						ok = s.Contains(th, k)
					}
					out[w] = append(out[w], ok)
				}
			},
		}
	}
}

// TestDeterministicReplayFromSeed is the acceptance-criterion determinism
// test: the same seed must reproduce the machine trace (order-sensitive
// digest over every event) and every operation outcome bit for bit, for
// each strategy.
func TestDeterministicReplayFromSeed(t *testing.T) {
	for _, mode := range []schedexplore.Mode{schedexplore.RandomWalk, schedexplore.PCT} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			run := func() ([]uint64, [][]bool) {
				out := make([][]bool, 3)
				res := schedexplore.Explore(listSetup(3, 12, out), schedexplore.Config{
					Mode:        mode,
					Seed:        42,
					Executions:  3,
					EvictPerMil: 150,
				})
				if res.Failure != nil {
					t.Fatalf("unexpected failure: %v", res.Failure)
				}
				results := make([][]bool, len(out))
				for w := range out {
					results[w] = append([]bool(nil), out[w]...)
				}
				return res.TraceHashes, results
			}
			h1, r1 := run()
			h2, r2 := run()
			if !reflect.DeepEqual(h1, h2) {
				t.Fatalf("trace digests differ between identical seeded runs:\n%v\n%v", h1, h2)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("operation outcomes differ between identical seeded runs")
			}
		})
	}
}

// probeSetup is the schedule-sensitive directory-locking probe: worker 0
// issues one AddTag spanning two lines (two directory-lock acquisitions
// with a GateInternal point between them); worker 1 takes one scheduling
// slot and observes both lines' directory tagger masks. Observing
// (tagged, untagged) requires scheduling worker 1 *inside* worker 0's
// AddTag — an interleaving that does not exist at operation granularity.
func probeSetup(obs map[[2]bool]bool) func() schedexplore.Setup {
	return func() schedexplore.Setup {
		m := smallMachine(2)
		wordsPerLine := core.LineSize / core.WordSize
		a := m.Alloc(2 * wordsPerLine)
		probe := m.Alloc(1)
		l1, l2 := a.Line(), core.Addr(uint64(a)+core.LineSize).Line()
		return schedexplore.Setup{
			Machine: m,
			Workers: 2,
			Body: func(w int, th core.Thread) {
				if w == 0 {
					th.AddTag(a, 2*core.LineSize)
					return
				}
				th.Load(probe) // the scheduling slot
				_, _, t1 := m.DebugLine(l1)
				_, _, t2 := m.DebugLine(l2)
				obs[[2]bool{len(t1) > 0, len(t2) > 0}] = true
			},
		}
	}
}

// TestExplorerReachesIntraOpInterleavings is the acceptance-criterion
// regression test: exhaustive exploration at operation granularity can
// never observe worker 0's AddTag half-applied, while cycle-level
// exploration provably reaches exactly that interleaving.
func TestExplorerReachesIntraOpInterleavings(t *testing.T) {
	mid := [2]bool{true, false}

	opObs := map[[2]bool]bool{}
	res := schedexplore.Explore(probeSetup(opObs), schedexplore.Config{
		Mode:           schedexplore.Exhaustive,
		OpBoundaryOnly: true,
	})
	if res.Failure != nil {
		t.Fatalf("probe failed: %v", res.Failure)
	}
	if !res.Exhausted {
		t.Fatalf("op-boundary probe space not exhausted in %d executions", res.Executions)
	}
	if opObs[mid] {
		t.Fatalf("op-boundary exploration observed a half-applied AddTag; gate granularity is broken: %v", opObs)
	}

	cycleObs := map[[2]bool]bool{}
	res = schedexplore.Explore(probeSetup(cycleObs), schedexplore.Config{
		Mode: schedexplore.Exhaustive,
	})
	if res.Failure != nil {
		t.Fatalf("probe failed: %v", res.Failure)
	}
	if !res.Exhausted {
		t.Fatalf("cycle-level probe space not exhausted in %d executions", res.Executions)
	}
	if !cycleObs[mid] {
		t.Fatalf("cycle-level exhaustive exploration never observed the half-applied AddTag; observations: %v", cycleObs)
	}
	// Strict superset: everything reachable at op granularity stays
	// reachable at cycle granularity.
	for o := range opObs {
		if !cycleObs[o] {
			t.Fatalf("op-boundary observation %v unreachable at cycle level", o)
		}
	}
}

// TestCounterexampleAndReplay forces a Check failure and verifies the
// counterexample carries the schedule and trace, and that Replay
// reproduces the identical interleaving.
func TestCounterexampleAndReplay(t *testing.T) {
	sentinel := errors.New("injected failure")
	var seen []uint64
	newSetup := func() schedexplore.Setup {
		m := smallMachine(2)
		a := m.Alloc(1)
		seen = nil
		return schedexplore.Setup{
			Machine: m,
			Workers: 2,
			Body: func(w int, th core.Thread) {
				for i := 0; i < 3; i++ {
					th.Store(a, uint64(w*10+i))
					seen = append(seen, th.Load(a))
				}
			},
			Check: func() error { return fmt.Errorf("%w: %v", sentinel, seen) },
		}
	}
	res := schedexplore.Explore(newSetup, schedexplore.Config{Seed: 7, Executions: 1})
	if res.Failure == nil {
		t.Fatal("Check error did not surface as a counterexample")
	}
	cx := res.Failure
	if !errors.Is(cx.Err, sentinel) {
		t.Fatalf("counterexample error = %v", cx.Err)
	}
	if len(cx.Choices) == 0 || len(cx.Trace) == 0 {
		t.Fatalf("counterexample missing schedule (%d choices) or trace (%d events)", len(cx.Choices), len(cx.Trace))
	}
	if s := cx.String(); !strings.Contains(s, "schedule") || !strings.Contains(s, "machine trace") {
		t.Fatalf("counterexample rendering incomplete:\n%s", s)
	}

	trace, err := schedexplore.Replay(newSetup, cx.Choices, schedexplore.Config{})
	if !errors.Is(err, sentinel) {
		t.Fatalf("replay error = %v, want the original failure", err)
	}
	if !reflect.DeepEqual(trace, cx.Trace) {
		t.Fatalf("replayed trace differs from the counterexample trace:\n%s\nvs\n%s",
			schedexplore.FormatTrace(trace), schedexplore.FormatTrace(cx.Trace))
	}
}

// TestTruncationReleasesWorkload pins the MaxDecisions escape hatch: a
// schedule cut off mid-exploration must release every core and let the
// workload drain, not deadlock.
func TestTruncationReleasesWorkload(t *testing.T) {
	out := make([][]bool, 2)
	res := schedexplore.Explore(listSetup(2, 30, out), schedexplore.Config{
		Seed:         3,
		Executions:   2,
		MaxDecisions: 5,
	})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	if res.Truncated != 2 {
		t.Fatalf("Truncated = %d, want 2 (every execution exceeds 5 decisions)", res.Truncated)
	}
	for w, r := range out {
		if len(r) != 30 {
			t.Fatalf("worker %d completed %d/30 ops after release", w, len(r))
		}
	}
}

// TestWindowedSchedulingCompletes smokes the PCT strategy with a non-zero
// scheduling quantum: coarser windows must still drive the workload to
// completion deterministically.
func TestWindowedSchedulingCompletes(t *testing.T) {
	out := make([][]bool, 3)
	cfg := schedexplore.Config{
		Mode:         schedexplore.PCT,
		Seed:         11,
		Executions:   2,
		WindowCycles: 300,
	}
	res := schedexplore.Explore(listSetup(3, 10, out), cfg)
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	res2 := schedexplore.Explore(listSetup(3, 10, out), cfg)
	if !reflect.DeepEqual(res.TraceHashes, res2.TraceHashes) {
		t.Fatalf("windowed runs not deterministic: %v vs %v", res.TraceHashes, res2.TraceHashes)
	}
}

// removeTagSetup probes the RemoveTag scheduling boundary: worker 0 tags a
// line, immediately unttags it, and validates; worker 1 stores to that line
// in its single scheduling slot. Validate can only report false when the
// store lands *between* AddTag and RemoveTag — the store then evicts the
// held tag and the eviction latch survives the RemoveTag. If RemoveTag is
// invisible to the gate, AddTag…RemoveTag runs atomically between
// scheduling points and that outcome is unreachable.
func removeTagSetup(obs map[bool]bool) func() schedexplore.Setup {
	return func() schedexplore.Setup {
		m := smallMachine(2)
		wordsPerLine := core.LineSize / core.WordSize
		a := m.Alloc(wordsPerLine)
		return schedexplore.Setup{
			Machine: m,
			Workers: 2,
			Body: func(w int, th core.Thread) {
				if w == 0 {
					th.AddTag(a, core.LineSize)
					th.RemoveTag(a, core.LineSize)
					obs[th.Validate()] = true
					th.ClearTagSet()
					return
				}
				th.Store(a, 1)
			},
		}
	}
}

// TestExplorerReachesRemoveTagBoundary is the regression test for the
// missing RemoveTag throttle: exhaustive cycle-level exploration must
// reach the interleaving where a remote store separates AddTag from
// RemoveTag (Validate observes the latched eviction), and must of course
// also reach the conflict-free orders.
func TestExplorerReachesRemoveTagBoundary(t *testing.T) {
	obs := map[bool]bool{}
	res := schedexplore.Explore(removeTagSetup(obs), schedexplore.Config{
		Mode: schedexplore.Exhaustive,
	})
	if res.Failure != nil {
		t.Fatalf("probe failed: %v", res.Failure)
	}
	if !res.Exhausted {
		t.Fatalf("probe space not exhausted in %d executions", res.Executions)
	}
	if !obs[true] {
		t.Fatalf("no conflict-free interleaving observed: %v", obs)
	}
	if !obs[false] {
		t.Fatalf("store never landed between AddTag and RemoveTag: the "+
			"tag-release boundary is invisible to the scheduler (observations %v)", obs)
	}
}
