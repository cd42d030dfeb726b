// Package workload generates the paper's standard search-data-structure
// workloads (Section 6): every thread draws random keys from a fixed
// range and performs a mix of inserts, deletes and searches; the
// structure is prefilled to half the key range so its size stays roughly
// constant and about half of the updates return false. Keys are uniform
// by default; Config.Dist switches the measured phase to a Zipfian or
// hot-set distribution for skewed-traffic experiments.
package workload

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/intset"
	"repro/internal/telemetry"
)

// Mix is an operation mix in percent; the remainder are searches.
type Mix struct {
	InsertPct int
	DeletePct int
}

// Update3535 is the paper's high-update workload: 35% inserts, 35%
// deletes, 30% searches.
var Update3535 = Mix{InsertPct: 35, DeletePct: 35}

// Update1515 is the paper's moderate workload: 15% inserts, 15% deletes,
// 70% searches.
var Update1515 = Mix{InsertPct: 15, DeletePct: 15}

// Config describes one run.
type Config struct {
	Threads      int
	KeyRange     uint64 // keys drawn from [KeyMin, KeyMin+KeyRange)
	PrefillSize  int    // initial structure size (typically KeyRange/2)
	OpsPerThread int
	Mix          Mix
	Seed         int64

	// Dist selects the key distribution for the measured phase's draws
	// (Prefill stays uniform). The zero value, DistUniform, reproduces
	// the paper's workload bit for bit. HotKeysPct/HotTrafficPct shape
	// DistHotSet (defaults 10/90); ZipfTheta shapes DistZipfian
	// (default 0.99).
	Dist          KeyDist
	HotKeysPct    int
	HotTrafficPct int
	ZipfTheta     float64

	// History, when non-nil, records every operation's invocation and
	// response (worker w uses shard w; Prefill records on shard 0) so the
	// run can be checked with internal/linearizability. It must have at
	// least Threads shards. Recording costs one slice append and two
	// atomic increments per operation; leave it nil for measured runs.
	History *history.Recorder

	// Telemetry, when non-nil, receives per-op latency (backend clock
	// delta across the operation) and retries (failure-count delta) into
	// core w's histograms. Requires the backend threads to implement
	// OpClock (both backends do). Recording is allocation-free.
	Telemetry *telemetry.Set
	// Sampler, when non-nil, is enrolled at phase start and ticked once
	// per completed operation, producing the run's time-series windows.
	Sampler *telemetry.Sampler
	// Trace, when non-nil, receives one op span per structure operation
	// for the Perfetto export. Unlike Telemetry/Sampler this allocates
	// (growing buffers); leave nil for measured runs.
	Trace *telemetry.TraceCollector
}

// opName names an op code for trace spans.
func opName(op uint8) string {
	switch op {
	case history.OpInsert:
		return "Insert"
	case history.OpDelete:
		return "Delete"
	default:
		return "Contains"
	}
}

// Counts aggregates what the threads did.
type Counts struct {
	Ops       uint64
	Inserts   uint64 // successful inserts
	Deletes   uint64 // successful deletes
	Hits      uint64 // successful searches
	TotalFill int    // keys prefilled
}

// Prefill populates the structure with cfg.PrefillSize distinct random
// keys using thread 0. With cfg.History set, every insert attempt
// (including duplicates that return false) is recorded on shard 0; the key
// sequence is identical to the unrecorded path.
func Prefill(mem core.Memory, s intset.Set, cfg Config) Counts {
	if cfg.History == nil {
		keys := intset.Prefill(mem.Thread(0), s, cfg.PrefillSize, cfg.KeyRange, cfg.Seed)
		return Counts{TotalFill: len(keys)}
	}
	filled := intset.RecordedPrefill(mem.Thread(0), s, cfg.History.Shard(0), cfg.PrefillSize, cfg.KeyRange, cfg.Seed, 0)
	return Counts{TotalFill: filled}
}

// Run executes the workload as one core.RunPhase — one goroutine per
// thread, clocks aligned and every worker enrolled in lax clock
// synchronization before the first operation — and returns the aggregated
// counts. The caller is responsible for prefilling and for snapshotting
// machine statistics before/after.
func Run(mem core.Memory, s intset.Set, cfg Config) Counts {
	results := make([]Counts, cfg.Threads)
	makeDraw := newKeyDraw(&cfg)
	core.RunPhase(mem, cfg.Threads, func(w int, th core.Thread) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919 + 1))
		draw := makeDraw(rng)
		var sh *history.Shard
		if cfg.History != nil {
			sh = cfg.History.Shard(w)
		}
		// Per-op telemetry reads the backend clock around each op.
		var oc core.OpClocked
		if cfg.Telemetry != nil || cfg.Sampler != nil || cfg.Trace != nil {
			oc, _ = th.(core.OpClocked)
		}
		var tel *telemetry.Core
		if cfg.Telemetry != nil && oc != nil {
			tel = cfg.Telemetry.Core(w)
		}
		if cfg.Sampler != nil && oc != nil {
			c0, f0 := oc.OpClock()
			cfg.Sampler.Enroll(w, c0, f0)
		}
		// do runs one structure operation, recorded when a history
		// shard or telemetry is attached.
		do := func(op uint8, k uint64, exec func() bool) bool {
			var c0, f0 uint64
			if oc != nil {
				c0, f0 = oc.OpClock()
			}
			var ok bool
			if sh == nil {
				ok = exec()
			} else {
				idx := sh.Begin(op, k, 0)
				ok = exec()
				sh.End(idx, ok, 0)
			}
			if oc != nil {
				c1, f1 := oc.OpClock()
				if tel != nil {
					tel.OpLatency.Observe(c1 - c0)
					tel.OpRetries.Observe(f1 - f0)
				}
				if cfg.Sampler != nil {
					cfg.Sampler.Tick(w, c1, f1)
				}
				if cfg.Trace != nil {
					cfg.Trace.OpSpan(w, opName(op), c0, c1)
				}
			}
			return ok
		}
		c := &results[w]
		for i := 0; i < cfg.OpsPerThread; i++ {
			k := draw()
			op := rng.Intn(100)
			switch {
			case op < cfg.Mix.InsertPct:
				if do(history.OpInsert, k, func() bool { return s.Insert(th, k) }) {
					c.Inserts++
				}
			case op < cfg.Mix.InsertPct+cfg.Mix.DeletePct:
				if do(history.OpDelete, k, func() bool { return s.Delete(th, k) }) {
					c.Deletes++
				}
			default:
				if do(history.OpContains, k, func() bool { return s.Contains(th, k) }) {
					c.Hits++
				}
			}
			c.Ops++
		}
	})
	var total Counts
	for _, c := range results {
		total.Ops += c.Ops
		total.Inserts += c.Inserts
		total.Deletes += c.Deletes
		total.Hits += c.Hits
	}
	return total
}
