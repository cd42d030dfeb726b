// Command memtag-stress runs randomized concurrent stress over every data
// structure in the repository, on either memory backend, verifying
// linearizability bookkeeping (per-key net-success counts) and each
// structure's own invariants afterwards. Intended for CI soak testing:
//
//	memtag-stress                       # one quick round over everything
//	memtag-stress -rounds 20 -threads 8 -backend machine
//	memtag-stress -structs hoh-tree,chromatic -ops 2000
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/reclaim"
	"repro/internal/schedexplore"
	"repro/internal/schedfuzz"
	"repro/internal/sets"
	"repro/internal/telemetry"
	"repro/internal/vtags"
)

// Telemetry flags, read by the fixed-signature round runners.
var (
	telemetryOn  bool
	sampleEveryN uint64
	traceOutPath string
)

// reclaimPolicy is the -reclaim selection; policyOff disables wiring.
const policyOff reclaim.Policy = -1

var reclaimPolicy = policyOff

// attachDomain creates a checked reclamation domain over mem (violations
// recorded, surfaced after the round) and attaches it to the backend.
func attachDomain(mem core.Memory) *reclaim.Domain {
	d := reclaim.NewDomainFor(mem)
	d.SetChecked(true)
	d.OnViolation(func(error) {})
	if sr, ok := mem.(reclaim.Attacher); ok {
		sr.SetReclaim(d)
	}
	return d
}

func main() {
	rounds := flag.Int("rounds", 1, "stress rounds per structure")
	threads := flag.Int("threads", 4, "concurrent threads")
	ops := flag.Int("ops", 500, "operations per thread per round")
	keyRange := flag.Uint64("range", 48, "key range (small = high contention)")
	backend := flag.String("backend", "both", "memory backend: machine, vtags, or both")
	only := flag.String("structs", "", "comma-separated structure names (default all)")
	seed := flag.Int64("seed", 1, "base random seed")
	telFlag := flag.Bool("telemetry", false,
		"record per-op latency/retry histograms during stress rounds and print a per-round summary (stress rounds only)")
	sampleFlag := flag.Uint64("sample-every", 4096,
		"telemetry sampler interval in backend clock units (cycles on machine, ops on vtags)")
	traceFlag := flag.String("trace-out", "",
		"write a Perfetto trace-event JSON of the stress round to this file (later rounds overwrite earlier ones; pair with -rounds 1 -structs <one> -backend <one>)")
	reclaimFlag := flag.String("reclaim", "",
		"wire a memory-reclamation pool into the structures with retire hooks (vas-list, hoh-list, hoh-tree, skiplist-vas, tagged-set): immediate (tag-conditioned) or epoch. The domain runs in checked mode, so any discipline violation fails the round; structures without hooks run unwired")
	linearize := flag.Bool("linearize", false,
		"record every operation and check the history with the linearizability checker, under schedule fuzzing (slower per op)")
	explore := flag.Bool("explore", false,
		"drive the cycle-level schedule explorer (machine backend only): serialize the cores, enumerate interleavings derived from -seed — including intra-operation directory-locking windows — and check every execution's history; a violation prints the schedule and machine trace, and re-running with the same -seed replays it exactly")
	exploreExecs := flag.Int("explore-execs", 8, "schedule-explorer executions per structure per round")
	exploreMode := flag.String("explore-mode", "random",
		"schedule exploration strategy: random, pct, exhaustive, or dpor (dynamic partial-order reduction — one schedule per interleaving class; use small -ops/-threads with exhaustive or dpor)")
	flag.Parse()

	if *threads < 1 {
		fmt.Fprintln(os.Stderr, "memtag-stress: -threads must be at least 1")
		os.Exit(2)
	}
	telemetryOn = *telFlag
	sampleEveryN = *sampleFlag
	traceOutPath = *traceFlag
	switch *reclaimFlag {
	case "":
	case "immediate":
		reclaimPolicy = reclaim.PolicyImmediate
	case "epoch":
		reclaimPolicy = reclaim.PolicyEpoch
	default:
		fmt.Fprintf(os.Stderr, "memtag-stress: unknown reclaim policy %q (valid: immediate, epoch)\n", *reclaimFlag)
		os.Exit(2)
	}

	selected := map[string]bool{}
	for _, n := range strings.Split(*only, ",") {
		if n = strings.TrimSpace(n); n != "" {
			if _, ok := sets.Lookup(n); !ok {
				var names []string
				for _, e := range sets.All() {
					names = append(names, e.Name)
				}
				fmt.Fprintf(os.Stderr, "memtag-stress: unknown structure %q (valid: %s)\n", n, strings.Join(names, ", "))
				os.Exit(2)
			}
			selected[n] = true
		}
	}

	backends := []string{"vtags", "machine"}
	if *backend != "both" {
		if *backend != "vtags" && *backend != "machine" {
			fmt.Fprintf(os.Stderr, "memtag-stress: unknown backend %q (valid: vtags, machine, both)\n", *backend)
			os.Exit(2)
		}
		backends = []string{*backend}
	}

	run := stressOne
	if *linearize {
		run = linearizeOne
	}
	if *explore {
		var mode schedexplore.Mode
		switch *exploreMode {
		case "random":
			mode = schedexplore.RandomWalk
		case "pct":
			mode = schedexplore.PCT
		case "exhaustive":
			mode = schedexplore.Exhaustive
		case "dpor":
			mode = schedexplore.StrategyDPOR
		default:
			fmt.Fprintf(os.Stderr, "memtag-stress: unknown explore mode %q (valid: random, pct, exhaustive, dpor)\n", *exploreMode)
			os.Exit(2)
		}
		backends = []string{"machine"} // the explorer gates simulated cores
		execs := *exploreExecs
		run = func(e sets.Entry, bk string, threads, ops int, keyRange uint64, seed int64) error {
			return exploreOne(e, threads, ops, keyRange, seed, mode, execs)
		}
	}

	failures := 0
	for _, e := range sets.All() {
		if len(selected) > 0 && !selected[e.Name] {
			continue
		}
		for _, bk := range backends {
			for round := 0; round < *rounds; round++ {
				// A panicking round fails like any other.
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					return run(e, bk, *threads, *ops, *keyRange, *seed+int64(round))
				}()
				if err != nil {
					fmt.Printf("FAIL %-14s %-8s round %d: %v\n", e.Name, bk, round, err)
					failures++
				} else {
					fmt.Printf("ok   %-14s %-8s round %d\n", e.Name, bk, round)
				}
			}
		}
	}
	if failures > 0 {
		fmt.Printf("%d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("all stress rounds passed")
}

func newBackend(kind string, threads int) core.Memory {
	if kind == "vtags" {
		return vtags.New(256<<20, threads)
	}
	cfg := machine.DefaultConfig(threads)
	cfg.MemBytes = 256 << 20
	cfg.MaxTags = 128
	return machine.New(cfg)
}

// linearizeOne runs one recorded round under schedule fuzzing and checks
// the operation history against the sequential set model, then the final
// set's structure.
func linearizeOne(e sets.Entry, backend string, threads, ops int, keyRange uint64, seed int64) error {
	var dom *reclaim.Domain
	var pool *reclaim.Pool
	newMem := func(t int) core.Memory {
		m := newBackend(backend, t)
		if reclaimPolicy != policyOff && e.Pool != nil {
			dom = attachDomain(m)
		}
		return m
	}
	build := func(mem core.Memory) intset.Set {
		s := e.New(mem)
		if dom != nil {
			pool = e.Pool(s, dom, reclaimPolicy)
		}
		return s
	}
	fuzz := schedfuzz.Default(seed)
	out, serr := intset.RunLinearize(
		newMem,
		build,
		intset.LinearizeConfig{
			Threads:      threads,
			OpsPerThread: ops,
			KeyRange:     keyRange,
			Prefill:      int(keyRange / 2),
			Seed:         seed,
			Fuzz:         &fuzz,
			FlipMode:     true,
		})
	if err := errors.Join(out.Err(), serr); err != nil {
		return err
	}
	if pool != nil {
		if verr := dom.Violation(); verr != nil {
			return fmt.Errorf("reclamation guard violation: %v", verr)
		}
	}
	return nil
}

// exploreOne runs one schedule-explored round on the machine backend: the
// explorer serializes the simulated cores, enumerates interleavings — op
// boundaries plus the intra-operation directory-locking windows — with
// targeted tag evictions, and checks every execution's history and final
// set. The whole round is a pure function of the seed, so a reported
// violation is reproduced exactly by re-running with the same flags.
func exploreOne(e sets.Entry, threads, ops int, keyRange uint64, seed int64, mode schedexplore.Mode, execs int) error {
	newMachine := func(t int) *machine.Machine { return newBackend("machine", t).(*machine.Machine) }
	res := intset.RunExplore(newMachine, e.New, intset.ExploreConfig{
		Threads:      threads,
		OpsPerThread: ops,
		KeyRange:     keyRange,
		Prefill:      int(keyRange / 2),
		Seed:         seed,
		Mode:         mode,
		Executions:   execs,
		EvictPerMil:  100,
	})
	if res.Failure != nil {
		return fmt.Errorf("schedule explorer found a violation (replay with the same -seed %d):\n%s", seed, res.Failure)
	}
	fmt.Printf("     %-14s %-8s coverage: %d executions (%d truncated, %d sleep-blocked), %d interleaving classes, exhausted=%v\n",
		e.Name, mode, res.Executions, res.Truncated, res.SleepBlocked, res.Classes(), res.Exhausted)
	return nil
}

// stressOne runs one concurrent mixed round as a core.RunPhase (on the
// machine the workers interleave by simulated time, not by host scheduling)
// and verifies per-key counts, snapshot order, and structural invariants.
func stressOne(e sets.Entry, backend string, threads, ops int, keyRange uint64, seed int64) error {
	mem := newBackend(backend, threads)
	var dom *reclaim.Domain
	var pool *reclaim.Pool
	if reclaimPolicy != policyOff && e.Pool != nil {
		dom = attachDomain(mem)
	}
	s := e.New(mem)
	if dom != nil {
		pool = e.Pool(s, dom, reclaimPolicy)
	}

	// Observability hooks, enabled by -telemetry / -trace-out. Both
	// backends offer the same capabilities, so stress rounds exercise the
	// allocation-free recording path under real concurrency.
	var tset *telemetry.Set
	var sampler *telemetry.Sampler
	var tcol *telemetry.TraceCollector
	if telemetryOn {
		if tb, ok := mem.(telemetry.Attacher); ok {
			tset = telemetry.NewSet(threads)
			tb.SetTelemetry(tset)
			every := sampleEveryN
			if every == 0 {
				every = 4096
			}
			sampler = telemetry.NewSampler(threads, every, 64)
			if pool != nil {
				pool.SetTelemetry(tset)
			}
		}
	}
	if traceOutPath != "" {
		if trb, ok := mem.(core.Traceable); ok {
			tcol = telemetry.NewTraceCollector(threads)
			trb.SetTracer(tcol)
		}
	}

	counts := intset.NewKeyCounts(threads, keyRange)
	core.RunPhase(mem, threads, func(w int, th core.Thread) {
		var oc core.OpClocked
		if tset != nil || tcol != nil {
			oc, _ = th.(core.OpClocked)
		}
		var tel *telemetry.Core
		if tset != nil && oc != nil {
			tel = tset.Core(w)
			c0, f0 := oc.OpClock()
			sampler.Enroll(w, c0, f0)
		}
		rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
		for i := 0; i < ops; i++ {
			var c0, f0 uint64
			if oc != nil {
				c0, f0 = oc.OpClock()
			}
			op := counts.Step(w, th, s, rng)
			if oc != nil {
				c1, f1 := oc.OpClock()
				if tel != nil {
					tel.OpLatency.Observe(c1 - c0)
					tel.OpRetries.Observe(f1 - f0)
					sampler.Tick(w, c1, f1)
				}
				if tcol != nil {
					tcol.OpSpan(w, [...]string{"Insert", "Delete", "Contains"}[op], c0, c1)
				}
			}
		}
	})

	if tset != nil {
		tset.Flush()
		agg := tset.Merge()
		retries := 0.0
		if n := agg.OpRetries.Count(); n > 0 {
			retries = float64(agg.OpRetries.Sum()) / float64(n)
		}
		fmt.Printf("     %-14s %-8s telemetry: op latency p50=%.0f p99=%.0f max=%d, retries/op=%.3f, windows=%d\n",
			e.Name, backend, agg.OpLatency.Quantile(0.5), agg.OpLatency.Quantile(0.99),
			agg.OpLatency.Max(), retries, len(sampler.Windows()))
	}
	if tcol != nil {
		if trb, ok := mem.(core.Traceable); ok {
			trb.SetTracer(nil)
		}
		f, ferr := os.Create(traceOutPath)
		if ferr != nil {
			return ferr
		}
		if werr := tcol.WriteJSON(f); werr != nil {
			f.Close()
			return werr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
		fmt.Printf("     %-14s %-8s trace: wrote %s (%d events)\n", e.Name, backend, traceOutPath, tcol.Events())
	}
	if pool != nil {
		if verr := dom.Violation(); verr != nil {
			return fmt.Errorf("reclamation guard violation: %v", verr)
		}
		st := pool.Stats()
		line := fmt.Sprintf("     %-14s %-8s reclaim: retired %d freed %d reused %d, peak %d lines, free-list %d",
			e.Name, backend, st.Retired, st.Freed, st.ReusedAllocs, st.HighWaterLines, st.FreeLines)
		if tset != nil {
			if agg := tset.Merge(); agg.RetireToFree.Count() > 0 {
				line += fmt.Sprintf(", retire-free p50=%.0f p99=%.0f",
					agg.RetireToFree.Quantile(0.5), agg.RetireToFree.Quantile(0.99))
			}
		}
		fmt.Println(line)
	}

	return counts.Verify(mem.Thread(0), s)
}
