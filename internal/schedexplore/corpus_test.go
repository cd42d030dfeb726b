package schedexplore_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/schedexplore"
	"repro/internal/stm"
)

// validateThenStoreSetup is the classic tag-misuse bug: increment by
// Load / AddTag / Validate / Store instead of VAS. Validation proves the
// line was unchanged *up to the validation*, but the store lands outside
// the validated window, so two workers can both validate and then both
// store — a lost update the VAS instruction exists to prevent.
func validateThenStoreSetup() func() schedexplore.Setup {
	return func() schedexplore.Setup {
		m := smallMachine(2)
		a := m.Alloc(1)
		return schedexplore.Setup{
			Machine: m,
			Workers: 2,
			Body: func(w int, th core.Thread) {
				for {
					v := th.Load(a)
					th.AddTag(a, 8)
					if !th.Validate() {
						// Retries are bounded: the opponent performs one
						// store, after which validation cannot fail again.
						th.ClearTagSet()
						continue
					}
					th.Store(a, v+1)
					th.ClearTagSet()
					return
				}
			},
			Check: func() error {
				if v := m.Thread(0).Load(a); v != 2 {
					return fmt.Errorf("validate-then-store lost update: counter = %d, want 2", v)
				}
				return nil
			},
		}
	}
}

// stmTornReadSetup seeds the opacity bug into the tagged NOrec read path
// (stm.TM.FaultTornRead) and runs a two-word invariant workload: the
// writer transactionally sets a=b=1; the reader transactionally reads
// both. A read spanning the writer's in-flight writeBack observes a != b,
// which no opaque STM can produce.
func stmTornReadSetup(fault bool) func() schedexplore.Setup {
	return func() schedexplore.Setup {
		m := smallMachine(2)
		tm := stm.NewTagged(m)
		tm.FaultTornRead = fault
		a, b := m.Alloc(1), m.Alloc(1)
		var torn error
		return schedexplore.Setup{
			Machine: m,
			Workers: 2,
			Body: func(w int, th core.Thread) {
				if w == 0 {
					tm.Run(th, func(tx *stm.Tx) {
						tx.Write(a, 1)
						tx.Write(b, 1)
					})
					return
				}
				var va, vb uint64
				tm.Run(th, func(tx *stm.Tx) {
					va, vb = tx.Read(a), tx.Read(b)
				})
				if va != vb {
					torn = fmt.Errorf("stm torn read: observed a=%d b=%d", va, vb)
				}
			},
			// Check runs once all workers have finished, so the unguarded
			// write to torn is safe.
			Check: func() error { return torn },
		}
	}
}

// TestDPORConvictsCorpus is the reduction-soundness regression corpus:
// every known-bad scenario previous PRs' explorers could convict must
// still be convicted under DPOR — pruning Mazurkiewicz-equivalent
// schedules must not prune the buggy interleaving — and the convicting
// schedule must replay to the same verdict.
func TestDPORConvictsCorpus(t *testing.T) {
	corpus := []struct {
		name    string
		setup   func() schedexplore.Setup
		wantErr string
	}{
		{"lost-update", lostUpdateSetup(), "lost update"},
		{"validate-then-store", validateThenStoreSetup(), "lost update"},
		{"stm-torn-read", stmTornReadSetup(true), "torn read"},
	}
	for _, c := range corpus {
		t.Run(c.name, func(t *testing.T) {
			// MaxDecisions truncates DPOR branches that drive a spin loop
			// (a reader parked on the STM sequence lock, a tag-validation
			// retry): the un-truncated workloads finish in well under 400
			// decisions, and truncated branches are still popped and
			// backtracked.
			res := schedexplore.Explore(c.setup, schedexplore.Config{
				Mode:         schedexplore.StrategyDPOR,
				Executions:   20000,
				MaxDecisions: 400,
			})
			if res.Failure == nil {
				t.Fatalf("DPOR pruned away the known-bad interleaving (%d executions, %d classes)",
					res.Executions, res.Classes())
			}
			if !strings.Contains(res.Failure.Err.Error(), c.wantErr) {
				t.Fatalf("unexpected verdict: %v", res.Failure.Err)
			}
			if _, err := schedexplore.Replay(c.setup, res.Failure.Choices, schedexplore.Config{}); err == nil {
				t.Fatal("convicting schedule did not replay to a failure")
			}
			t.Logf("convicted after %d executions", res.Executions)
		})
	}
}

// TestDPORAcquitsGuardedSTM is the corpus's negative control: with the
// torn-read guard intact the identical workload has no bad interleaving,
// and DPOR must not fabricate one. The budget is what convicts a machine
// AddTag that ignores write marks: at 2,000 executions that mutant passed.
func TestDPORAcquitsGuardedSTM(t *testing.T) {
	res := schedexplore.Explore(stmTornReadSetup(false), schedexplore.Config{
		Mode:         schedexplore.StrategyDPOR,
		Executions:   5000,
		MaxDecisions: 400,
	})
	if res.Failure != nil {
		t.Fatalf("fabricated failure: %v", res.Failure)
	}
}
