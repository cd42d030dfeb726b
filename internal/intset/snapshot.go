package intset

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/linearizability"
	"repro/internal/schedfuzz"
)

// RangeQuerier is a Set with an atomic range scan: RangeQuery returns the
// keys in [lo, hi] as of a single linearization point, or ok=false when it
// gave up (tag budget exceeded, maxTries validation failures). Implemented
// by the tagged list, skip list and HoH (a,b)-tree.
type RangeQuerier interface {
	Set
	RangeQuery(th core.Thread, lo, hi uint64, maxTries int) (keys []uint64, ok bool)
}

// SnapshotConfig describes one snapshot-linearizability stress run: workers
// mix point operations with atomic range scans and whole-set snapshots, and
// the combined history is checked against the whole-set sequential model
// (linearizability.SnapshotSetModel). Scans do not commute with point
// operations, so the check is single-partition — keep runs small.
type SnapshotConfig struct {
	Threads      int
	OpsPerThread int
	// KeyRange bounds the key universe [KeyMin, KeyMin+KeyRange-1]; the
	// whole-set model needs KeyRange <= 64.
	KeyRange uint64
	Prefill  int
	Seed     int64
	// ScanPerMil is the per-mil probability that an op is a scan (half
	// random ranges, half whole-set snapshots). 0 picks a default of 250.
	ScanPerMil int
	// ScanTries is the RangeQuery retry budget. 0 picks a default of 64.
	ScanTries int
	// Fuzz, when non-nil, wraps the backend with schedule fuzzing.
	Fuzz *schedfuzz.Config
}

// maskOf encodes a scan result as the membership bitmask the snapshot model
// compares against its state.
func maskOf(keys []uint64) uint64 {
	var m uint64
	for _, k := range keys {
		m |= uint64(1) << (k - KeyMin)
	}
	return m
}

// RunSnapshotLinearize executes one recorded run mixing point ops with
// atomic scans and checks the history against SnapshotSetModel. newMem and
// build follow the RunLinearize contract, results included; build's result
// must implement RangeQuerier.
func RunSnapshotLinearize(newMem func(threads int) core.Memory, build func(core.Memory) Set, cfg SnapshotConfig) (linearizability.Outcome, error) {
	if cfg.KeyRange < 1 || cfg.KeyRange > 64 {
		panic("intset: SnapshotConfig.KeyRange must be in [1, 64]")
	}
	scanPerMil := cfg.ScanPerMil
	if scanPerMil == 0 {
		scanPerMil = 250
	}
	scanTries := cfg.ScanTries
	if scanTries == 0 {
		scanTries = 64
	}

	var mem core.Memory = newMem(cfg.Threads)
	if cfg.Fuzz != nil {
		mem = schedfuzz.Wrap(mem, *cfg.Fuzz)
	}
	s := build(mem).(RangeQuerier)

	rec := history.NewRecorder(cfg.Threads, cfg.OpsPerThread+cfg.Prefill+8)

	RecordedPrefill(mem.Thread(0), s, rec.Shard(0), cfg.Prefill, cfg.KeyRange, prefillSeed(cfg.Seed), KeyMin)

	core.RunPhase(mem, cfg.Threads, func(w int, th core.Thread) {
		sh, rng := rec.Shard(w), workerRand(cfg.Seed, w)
		for i := 0; i < cfg.OpsPerThread; i++ {
			if rng.Intn(1000) >= scanPerMil {
				recordedOp(th, s, sh, rng, cfg.KeyRange, KeyMin)
				continue
			}
			if rng.Intn(2) == 0 {
				// Whole-set snapshot.
				idx := sh.Begin(history.OpKeys, 0, cfg.KeyRange-1)
				keys, ok := s.RangeQuery(th, KeyMin, KeyMin+cfg.KeyRange-1, scanTries)
				sh.End(idx, ok, maskOf(keys))
			} else {
				lo := uint64(rng.Int63n(int64(cfg.KeyRange)))
				hi := lo + uint64(rng.Int63n(int64(cfg.KeyRange-lo)))
				idx := sh.Begin(history.OpRange, lo, hi)
				keys, ok := s.RangeQuery(th, KeyMin+lo, KeyMin+hi, scanTries)
				sh.End(idx, ok, maskOf(keys))
			}
		}
	})

	return linearizability.Check(linearizability.SnapshotSetModel(cfg.KeyRange), rec.Events()),
		checkQuiescent(mem.Thread(0), s)
}

// CheckSnapshotLinearizable runs RunSnapshotLinearize and fails the test on
// a non-linearizable history, an inconclusive verdict or a failed
// structural check.
func CheckSnapshotLinearizable(t *testing.T, newMem func(threads int) core.Memory, build func(core.Memory) Set, cfg SnapshotConfig) {
	t.Helper()
	out, serr := RunSnapshotLinearize(newMem, build, cfg)
	if err := errors.Join(out.Err(), serr); err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
}
