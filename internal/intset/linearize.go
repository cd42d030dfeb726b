package intset

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/linearizability"
	"repro/internal/schedfuzz"
)

// LinearizeConfig describes one linearizability stress run: concurrent
// workers hammer a shared key range while every invocation/response is
// recorded (internal/history), optionally under schedule fuzzing
// (internal/schedfuzz), and the resulting history is checked against the
// sequential set model (internal/linearizability).
type LinearizeConfig struct {
	Threads      int
	OpsPerThread int
	KeyRange     uint64
	Prefill      int   // keys inserted (and recorded) before the parallel phase
	Seed         int64 // derives op streams, fuzz injections and the mode flipper
	// Fuzz, when non-nil, wraps the backend with schedule fuzzing.
	Fuzz *schedfuzz.Config
	// FlipMode drives randomized fallback Mode-line transitions from a
	// spare thread while the workers run, when the structure exposes a
	// Mode line (ModeAddr).
	FlipMode bool
}

// modeAddresser is implemented by fallback-path structures (elided list,
// elided (a,b)-tree) that expose their Mode line.
type modeAddresser interface{ ModeAddr() core.Addr }

// RunLinearize executes one recorded stress run and checks the history.
// newMem must allocate a backend with the requested number of thread
// handles — exactly one per worker; the Mode-line flipper, when enabled,
// runs on the backend's SpareThread and consumes no simulated core. The
// build callback constructs the structure on the (possibly fuzz-wrapped)
// memory. The outcome is the history verdict alone; the error is the
// quiescent structural check after the phase (it wraps ErrStructure).
func RunLinearize(newMem func(threads int) core.Memory, build func(core.Memory) Set, cfg LinearizeConfig) (linearizability.Outcome, error) {
	var mem core.Memory = newMem(cfg.Threads)
	if cfg.Fuzz != nil {
		mem = schedfuzz.Wrap(mem, *cfg.Fuzz)
	}
	s := build(mem)

	rec := history.NewRecorder(cfg.Threads, cfg.OpsPerThread+cfg.Prefill+8)

	// Prefill on thread 0, recorded like any other operations (the checker
	// must see every effect on the structure).
	RecordedPrefill(mem.Thread(0), s, rec.Shard(0), cfg.Prefill, cfg.KeyRange, prefillSeed(cfg.Seed), 0)

	// The flipper drives the memory's spare handle, which is no counted
	// thread: RunPhase's epoch alignment does not touch it.
	var stopFlipper func()
	if cfg.FlipMode {
		if ma, ok := s.(modeAddresser); ok {
			if sp, ok := mem.(core.SpareThreader); ok {
				if th := sp.SpareThread(); th != nil {
					stopFlipper = schedfuzz.StartModeFlipper(th, ma.ModeAddr(), cfg.Seed)
				}
			}
		}
	}
	core.RunPhase(mem, cfg.Threads, recordedWorkers(s, rec, cfg.Seed, cfg.OpsPerThread, cfg.KeyRange))
	if stopFlipper != nil {
		stopFlipper()
	}

	return linearizability.CheckSet(rec.Events()), checkQuiescent(mem.Thread(0), s)
}

// CheckLinearizable runs RunLinearize and fails the test on a
// non-linearizable history (printing the minimal counterexample), an
// inconclusive verdict or a failed structural check.
func CheckLinearizable(t *testing.T, newMem func(threads int) core.Memory, build func(core.Memory) Set, cfg LinearizeConfig) {
	t.Helper()
	out, serr := RunLinearize(newMem, build, cfg)
	if err := errors.Join(out.Err(), serr); err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
}

// LinearizeOps scales an op count down under -short so the fuzzed suites
// stay fast in the race-enabled CI lane.
func LinearizeOps(n int) int {
	if testing.Short() {
		return n / 3
	}
	return n
}
