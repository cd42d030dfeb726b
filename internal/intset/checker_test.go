package intset_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/intset"
	"repro/internal/linearizability"
	"repro/internal/list"
	"repro/internal/machine"
	"repro/internal/schedexplore"
	"repro/internal/vtags"
)

var errPlanted = errors.New("planted invariant violation")

// brokenSet is a correct set whose structural check always fails: every
// history it produces is linearizable, so only the quiescent check can
// catch it (as with a tree that skips a rebalance).
type brokenSet struct{ intset.Set }

func (brokenSet) CheckInvariants(core.Thread) error { return errPlanted }

func buildBroken(m core.Memory) intset.Set { return brokenSet{list.NewHoH(m)} }

// wantStructural fails unless err is the planted structural failure.
func wantStructural(t *testing.T, runner string, err error) {
	t.Helper()
	if !errors.Is(err, intset.ErrStructure) || !errors.Is(err, errPlanted) {
		t.Errorf("%s: got %v, want the planted error as a structural failure", runner, err)
	}
}

// fatalRecorder is a testing.TB whose Fatal records its message and
// unwinds the check by panicking with itself.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Helper() {}
func (r *fatalRecorder) Fatal(args ...any) {
	r.msg = fmt.Sprint(args...)
	panic(r)
}
func (r *fatalRecorder) Fatalf(format string, args ...any) {
	r.msg = fmt.Sprintf(format, args...)
	panic(r)
}

// TestStructuralFailureReportedApart requires every runner that checks a
// quiescent set to report a Checker's failure as a structural failure,
// with the history verdict still OK.
func TestStructuralFailureReportedApart(t *testing.T) {
	t.Run("RunLinearize", func(t *testing.T) {
		out, err := intset.RunLinearize(func(n int) core.Memory { return vtags.New(8<<20, n) }, buildBroken,
			intset.LinearizeConfig{Threads: 2, OpsPerThread: 40, KeyRange: 8, Prefill: 4, Seed: 3})
		if !out.OK || out.Inconclusive {
			t.Errorf("history verdict changed:\n%s", out.Explain())
		}
		wantStructural(t, "RunLinearize", err)
	})

	t.Run("RunExplore", func(t *testing.T) {
		historyOK := true
		res := intset.RunExplore(func(n int) *machine.Machine {
			cfg := machine.DefaultConfig(n)
			cfg.MemBytes = 8 << 20
			return machine.New(cfg)
		}, buildBroken, intset.ExploreConfig{
			Threads: 2, OpsPerThread: 6, KeyRange: 6, Prefill: 3, Seed: 5,
			Mode: schedexplore.RandomWalk, Executions: 2,
			OnHistory: func(events []history.Event) {
				historyOK = historyOK && linearizability.CheckSet(events).OK
			},
		})
		if res.Failure == nil {
			t.Fatal("RunExplore accepted the broken set")
		}
		if !historyOK {
			t.Error("history verdict changed")
		}
		wantStructural(t, "RunExplore", res.Failure.Err)
	})

	t.Run("KeyCounts.Verify", func(t *testing.T) {
		mem := vtags.New(8<<20, 1)
		s, counts, rng := buildBroken(mem), intset.NewKeyCounts(1, 8), rand.New(rand.NewSource(1))
		for i := 0; i < 40; i++ {
			counts.Step(0, mem.Thread(0), s, rng)
		}
		wantStructural(t, "KeyCounts.Verify", counts.Verify(mem.Thread(0), s))
	})

	t.Run("VerifyAgainstReference", func(t *testing.T) {
		mem := vtags.New(8<<20, 1)
		s, ref := buildBroken(mem), intset.Reference{}
		for _, k := range []uint64{5, 9, 2} {
			s.Insert(mem.Thread(0), k)
			ref.Insert(k)
		}
		rec := &fatalRecorder{TB: t}
		func() {
			defer func() {
				if r := recover(); r != nil && r != rec {
					panic(r)
				}
			}()
			intset.VerifyAgainstReference(rec, mem.Thread(0), s, ref, 16)
		}()
		if want := intset.ErrStructure.Error() + ": " + errPlanted.Error(); rec.msg != want {
			t.Errorf("VerifyAgainstReference: got %q, want %q", rec.msg, want)
		}
	})
}
