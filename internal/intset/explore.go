package intset

import (
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/linearizability"
	"repro/internal/machine"
	"repro/internal/schedexplore"
)

// ExploreConfig describes one schedule-explored linearizability run on the
// machine backend: the cycle-level explorer (internal/schedexplore)
// serializes the simulated cores and enumerates interleavings — including
// the intra-operation directory-locking windows — while every operation is
// recorded and each execution's history is checked against the sequential
// set model.
type ExploreConfig struct {
	Threads      int
	OpsPerThread int
	KeyRange     uint64
	Prefill      int // keys inserted (and recorded) before exploration
	Seed         int64
	// Mode, Executions, WindowCycles, EvictPerMil and MaxDecisions are
	// passed through to schedexplore.Config.
	Mode         schedexplore.Mode
	Executions   int
	WindowCycles uint64
	EvictPerMil  int
	MaxDecisions int
	// OnHistory, when non-nil, receives each execution's recorded history
	// (determinism tests compare histories across identically seeded runs).
	OnHistory func(events []history.Event)
}

// RunExplore explores schedules of one recorded workload per execution and
// checks every execution's history, then the quiescent set (a structural
// failure wraps ErrStructure). newMachine must build the backend
// deterministically (same config for the same thread count).
func RunExplore(newMachine func(threads int) *machine.Machine, build func(core.Memory) Set, cfg ExploreConfig) schedexplore.Result {
	newSetup := func() schedexplore.Setup {
		m := newMachine(cfg.Threads)
		s := build(m)
		rec := history.NewRecorder(cfg.Threads, cfg.OpsPerThread+cfg.Prefill+8)
		RecordedPrefill(m.Thread(0), s, rec.Shard(0), cfg.Prefill, cfg.KeyRange, prefillSeed(cfg.Seed), 0)
		return schedexplore.Setup{
			Machine: m,
			Workers: cfg.Threads,
			Body:    recordedWorkers(s, rec, cfg.Seed, cfg.OpsPerThread, cfg.KeyRange),
			Check: func() error {
				if cfg.OnHistory != nil {
					cfg.OnHistory(rec.Events())
				}
				out := linearizability.CheckSet(rec.Events())
				if err := out.Err(); err != nil {
					return err
				}
				return checkQuiescent(m.Thread(0), s)
			},
		}
	}
	return schedexplore.Explore(newSetup, schedexplore.Config{
		Mode:         cfg.Mode,
		Seed:         cfg.Seed,
		Executions:   cfg.Executions,
		WindowCycles: cfg.WindowCycles,
		EvictPerMil:  cfg.EvictPerMil,
		MaxDecisions: cfg.MaxDecisions,
	})
}

// CheckExploreLinearizable runs RunExplore and fails the test on any
// failing execution, printing the counterexample schedule and machine
// trace.
func CheckExploreLinearizable(t *testing.T, newMachine func(threads int) *machine.Machine, build func(core.Memory) Set, cfg ExploreConfig) {
	t.Helper()
	res := RunExplore(newMachine, build, cfg)
	if res.Failure != nil {
		t.Fatalf("schedule explorer found a violation (mode %s):\n%s", cfg.Mode, res.Failure)
	}
	t.Logf("mode %s: %d executions (%d truncated, %d sleep-blocked), %d interleaving classes, exhausted=%v",
		cfg.Mode, res.Executions, res.Truncated, res.SleepBlocked, res.Classes(), res.Exhausted)
}
