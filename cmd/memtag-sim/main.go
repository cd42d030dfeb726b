// Command memtag-sim inspects the MemTags machine simulator. It has two
// modes:
//
//	memtag-sim -demo    # step-by-step walkthrough of tag/VAS/IAS semantics
//	memtag-sim          # run a mixed list workload and dump full statistics
//
// The demo narrates exactly the scenarios from the paper's Sections 3-4:
// tagging, remote invalidation, validate-and-swap failure, and the
// invalidate-and-swap "transient marking" that makes hand-over-hand tagging
// correct.
package main

import (
	"flag"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/machine"
	"repro/internal/workload"
)

func main() {
	demo := flag.Bool("demo", false, "narrated walkthrough of MemTags semantics")
	trace := flag.Bool("trace", false, "print a coherence event trace of a tiny tagged scenario")
	cores := flag.Int("cores", 8, "simulated cores for the stats run")
	ops := flag.Int("ops", 400, "operations per thread for the stats run")
	flag.Parse()

	switch {
	case *demo:
		runDemo()
	case *trace:
		runTrace()
	default:
		runStats(*cores, *ops)
	}
}

// printTracer writes each event as one line, like the simulator traces the
// paper examines to attribute speedups to reduced coherence messaging.
type printTracer struct{ mu sync.Mutex }

func (p *printTracer) Trace(e core.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	target := ""
	if e.Target >= 0 {
		target = fmt.Sprintf(" -> core%d", e.Target)
	}
	fmt.Printf("  [cyc %6d] core%d %-12s line %d%s\n", e.Cycle, e.Core, e.Kind, e.Line, target)
}

// runTrace narrates the coherence events of one HoH-list delete observed
// by a concurrent traversal.
func runTrace() {
	cfg := machine.DefaultConfig(2)
	cfg.MemBytes = 4 << 20
	m := machine.New(cfg)
	s := list.NewHoH(m)
	t0, t1 := m.Thread(0), m.Thread(1)
	for k := uint64(10); k <= 40; k += 10 {
		s.Insert(t0, k)
	}

	fmt.Println("— event trace: core1 searches 30 while core0 deletes 20 —")
	m.SetTracer(&printTracer{})
	fmt.Println("core1: Contains(30)")
	s.Contains(t1, 30)
	fmt.Println("core0: Delete(20)   // IAS transiently marks the removed node")
	s.Delete(t0, 20)
	fmt.Println("core1: Contains(20)")
	found := s.Contains(t1, 20)
	m.SetTracer(nil)
	fmt.Printf("result: Contains(20) = %v\n", found)
}

func runDemo() {
	cfg := machine.DefaultConfig(2)
	cfg.MemBytes = 1 << 20
	m := machine.New(cfg)
	t0, t1 := m.Thread(0), m.Thread(1)

	node := m.Alloc(2)
	target := m.Alloc(1)
	t0.Store(node, 42)

	fmt.Println("— MemTags walkthrough (2 simulated cores) —")
	fmt.Println("core1: AddTag(node); Load(node)")
	t1.AddTag(node, 16)
	fmt.Printf("        loaded %d, Validate() = %v (no conflict yet)\n", t1.Load(node), t1.Validate())

	fmt.Println("core0: Store(node, 43)   // invalidates core1's tagged line")
	t0.Store(node, 43)
	fmt.Printf("core1: Validate() = %v   // eviction detected locally, no coherence traffic\n", t1.Validate())
	t1.ClearTagSet()

	fmt.Println("\ncore1: retag node, attempt VAS(target, 7) with a quiet tag set")
	t1.AddTag(node, 16)
	t1.Load(node)
	fmt.Printf("        VAS = %v, target = %d\n", t1.VAS(target, 7), t1.Load(target))

	fmt.Println("core1: keep tag; core0 writes node; VAS(target, 8) must fail")
	t0.Store(node, 44)
	fmt.Printf("        VAS = %v, target still = %d (failed VAS writes nothing)\n",
		t1.VAS(target, 8), t1.Load(target))
	t1.ClearTagSet()

	fmt.Println("\n— IAS: transient marking (Figure 1's fix) —")
	fmt.Println("both cores tag the same node; core0 IASes")
	t0.ClearTagSet()
	t0.AddTag(node, 16)
	t1.AddTag(node, 16)
	fmt.Printf("core0: IAS(target, 9) = %v\n", t0.IAS(target, 9))
	fmt.Printf("core0: Validate() = %v   // issuer's tags survive\n", t0.Validate())
	fmt.Printf("core1: Validate() = %v   // remote tag invalidated: traversal restarts\n", t1.Validate())
	t0.ClearTagSet()
	t1.ClearTagSet()

	snap := m.Snapshot()
	fmt.Printf("\nevents: %d loads, %d stores, %d invalidation msgs, %d tag adds, %d validations (%d failed)\n",
		snap.Loads, snap.Stores, snap.InvalidationsSent, snap.TagAdds, snap.Validates, snap.ValidateFails)
}

func runStats(cores, ops int) {
	cfg := machine.DefaultConfig(cores)
	cfg.MemBytes = 64 << 20
	m := machine.New(cfg)
	s := list.NewHoH(m)
	wl := workload.Config{
		Threads: cores, KeyRange: 512, PrefillSize: 256,
		OpsPerThread: ops, Mix: workload.Update3535, Seed: 42,
	}
	workload.Prefill(m, s, wl)
	counts := workload.Run(m, s, wl)
	snap := m.Snapshot()

	fmt.Printf("HoH-tagged list, %d cores, %d ops (%d ins, %d del, %d hits)\n",
		cores, counts.Ops, counts.Inserts, counts.Deletes, counts.Hits)
	fmt.Printf("  simulated time   : %.3f ms (max core cycles %d)\n",
		1e3*snap.SimSeconds(cfg.ClockHz), snap.MaxCycles)
	fmt.Printf("  throughput       : %.3f Mops/s\n",
		float64(counts.Ops)/snap.SimSeconds(cfg.ClockHz)/1e6)
	fmt.Printf("  accesses         : %d (L1 %d, L2 %d, remote %d, DRAM %d)\n",
		snap.Accesses(), snap.L1Hits, snap.L2Hits, snap.RemoteFills, snap.MemFills)
	fmt.Printf("  L1 miss rate     : %.2f%%\n", 100*snap.MissRate())
	fmt.Printf("  invalidations    : %d sent / %d received\n",
		snap.InvalidationsSent, snap.InvalidationsReceived)
	fmt.Printf("  tags             : %d added, %d removed, %d overflows\n",
		snap.TagAdds, snap.TagRemoves, snap.TagOverflows)
	fmt.Printf("  validations      : %d (%d failed, %.2f%%)\n",
		snap.Validates, snap.ValidateFails, 100*float64(snap.ValidateFails)/float64(max(1, snap.Validates)))
	fmt.Printf("  VAS              : %d (%d failed)   IAS: %d (%d failed)\n",
		snap.VASAttempts, snap.VASFails, snap.IASAttempts, snap.IASFails)
	fmt.Printf("  spurious evicts  : %d (%.4f%% of validations)\n",
		snap.SpuriousEvictions, 100*float64(snap.SpuriousEvictions)/float64(max(1, snap.Validates)))
	fmt.Printf("  energy           : %.0f units (%.1f per op)\n",
		snap.Energy, snap.Energy/float64(max(1, counts.Ops)))
}
