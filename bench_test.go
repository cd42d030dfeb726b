package repro

// Benchmark harness: one benchmark per paper figure (Figures 2 and 4-8;
// Figures 1 and 3 are diagrams), plus micro-benchmarks of the primitives
// and ablations of the design choices called out in DESIGN.md.
//
// Each figure benchmark executes its experiment at a reduced scale per
// iteration and reports the headline simulated metrics via ReportMetric:
//
//	simMops        simulated throughput at the largest thread count,
//	               for the tagged variant
//	speedup        tagged variant vs software baseline at that count
//	missPct        tagged variant's L1 miss rate
//	p99cycles      tagged variant's simulated p99 op latency (telemetry is
//	               enabled on every figure benchmark, so its recording cost
//	               is part of the gated host time)
//
// Run `go run ./cmd/memtag-bench -full` for the paper-scale sweeps.

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/intset"
	"repro/internal/kcas"
	"repro/internal/list"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/vtags"
	"repro/internal/workload"
)

// benchScale keeps per-iteration cost low; memtag-bench -full is the
// paper-scale path.
func benchScale() harness.Scale {
	return harness.Scale{Threads: []int{1, 8, 32}, OpsPerThread: 120, Trials: 1}
}

func benchSetExperiment(b *testing.B, e *harness.SetExperiment, tagged, baseline string) {
	b.Helper()
	// Fan experiment cells over the host CPUs; results are identical to a
	// serial run (DESIGN.md, "Experiment harness").
	e.Workers = runtime.GOMAXPROCS(0)
	e.Telemetry = true
	top := e.Threads[len(e.Threads)-1]
	var mops, speedup, miss, p99 float64
	for i := 0; i < b.N; i++ {
		points := e.Run()
		speedup += harness.Speedup(points, tagged, baseline, top)
		for _, p := range points {
			if p.Variant == tagged && p.Threads == top {
				mops += p.ThroughputMops
				miss += p.MissRatePct
				p99 += p.OpLatP99
			}
		}
	}
	n := float64(b.N)
	b.ReportMetric(mops/n, "simMops")
	b.ReportMetric(speedup/n, "speedup")
	b.ReportMetric(miss/n, "missPct")
	b.ReportMetric(p99/n, "p99cycles")
}

// BenchmarkFig2_ListThroughput35 regenerates Figure 2: Harris vs VAS vs
// HoH lists, 35% ins / 35% del, throughput vs threads.
func BenchmarkFig2_ListThroughput35(b *testing.B) {
	benchSetExperiment(b, harness.Fig2(benchScale()), "hoh", "harris")
}

// BenchmarkFig4_List35 regenerates Figure 4 (throughput, miss rate and
// energy panels for the 35/35 list workload).
func BenchmarkFig4_List35(b *testing.B) {
	benchSetExperiment(b, harness.Fig4(benchScale()), "vas", "harris")
}

// BenchmarkFig5_List15 regenerates Figure 5 (15% ins / 15% del list).
func BenchmarkFig5_List15(b *testing.B) {
	benchSetExperiment(b, harness.Fig5(benchScale()), "hoh", "harris")
}

// BenchmarkFig6_ABTree35 regenerates Figure 6: LLX/SCX vs HoH-tagged
// (a,b)-tree at 35/35.
func BenchmarkFig6_ABTree35(b *testing.B) {
	benchSetExperiment(b, harness.Fig6(benchScale()), "hoh-tag", "llxscx")
}

// BenchmarkFig7_ABTree15 regenerates Figure 7: the 15/15 tree workload.
func BenchmarkFig7_ABTree15(b *testing.B) {
	benchSetExperiment(b, harness.Fig7(benchScale()), "hoh-tag", "llxscx")
}

// BenchmarkFigNUMA_ABTree35 runs a reduced beyond-the-paper sweep (64 and
// 128 simulated cores on 64-core sockets, both backends) and reports the
// tagged tree's metrics at 128 cores: simulated throughput, cross-socket
// traffic, and the simulated p99 op latency (numaP99cycles) that CI gates
// — a regression here means the directory's core sets, the lax clock, or
// the socket pricing got slower or skewed at scale.
func BenchmarkFigNUMA_ABTree35(b *testing.B) {
	var mops, hops, p99 float64
	for i := 0; i < b.N; i++ {
		e := harness.NUMASweep(true)
		e.Workers = runtime.GOMAXPROCS(0)
		e.Cores = []int{64, 128}
		e.OpsPerThread = 40
		for _, p := range e.Run() {
			if p.Backend == "machine" && p.Variant == "hoh-tag" && p.Cores == 128 {
				mops += p.ThroughputMops
				hops += p.SocketHopsPerOp
				p99 += p.OpLatP99
			}
		}
	}
	n := float64(b.N)
	b.ReportMetric(mops/n, "simMops")
	b.ReportMetric(hops/n, "hopsPerOp")
	b.ReportMetric(p99/n, "numaP99cycles")
}

// BenchmarkFig8_VacationNOrec regenerates Figure 8: STAMP Vacation on
// NOrec vs tagged NOrec (-n4 -q60 -u90, tables scaled down per iteration).
func BenchmarkFig8_VacationNOrec(b *testing.B) {
	e := harness.Fig8(true)
	e.Workers = runtime.GOMAXPROCS(0)
	e.Threads = []int{1, 4, 8}
	e.Params.Relations = 512
	e.Params.Transactions = 24
	top := e.Threads[len(e.Threads)-1]
	var ktx, speedup float64
	for i := 0; i < b.N; i++ {
		points := e.Run()
		var tagged, norec float64
		for _, p := range points {
			if p.Threads != top {
				continue
			}
			if p.Variant == "tagged" {
				tagged = p.ThroughputKtx
			} else if p.Variant == "norec" {
				norec = p.ThroughputKtx
			}
		}
		ktx += tagged
		if norec > 0 {
			speedup += tagged / norec
		}
	}
	b.ReportMetric(ktx/float64(b.N), "simKtx")
	b.ReportMetric(speedup/float64(b.N), "speedup")
}

// BenchmarkFigReclaim_Skiplist runs the reclamation extension experiment
// (VAS skip list: no reclamation vs tag-conditioned immediate vs epoch)
// and reports the immediate policy's headline metrics plus its
// retire-to-free p99 in simulated cycles (rfP99cycles) and peak footprint
// in lines — rfP99cycles is the series CI gates for reclamation-pipeline
// regressions.
func BenchmarkFigReclaim_Skiplist(b *testing.B) {
	e := harness.ReclaimExperiment(benchScale())
	e.Workers = runtime.GOMAXPROCS(0)
	e.Telemetry = true
	top := e.Threads[len(e.Threads)-1]
	var mops, speedup, p99, rf99, peak float64
	for i := 0; i < b.N; i++ {
		points := e.Run()
		speedup += harness.Speedup(points, "immediate", "none", top)
		for _, p := range points {
			if p.Variant == "immediate" && p.Threads == top {
				mops += p.ThroughputMops
				p99 += p.OpLatP99
				rf99 += p.RetireFreeP99
				peak += float64(p.PeakLiveLines)
			}
		}
	}
	n := float64(b.N)
	b.ReportMetric(mops/n, "simMops")
	b.ReportMetric(speedup/n, "speedup")
	b.ReportMetric(p99/n, "p99cycles")
	b.ReportMetric(rf99/n, "rfP99cycles")
	b.ReportMetric(peak/n, "peakLines")
}

// BenchmarkExtension_SkipList runs the skip-list extension experiment
// (CAS vs VAS; the paper claims applicability without reporting a figure).
func BenchmarkExtension_SkipList(b *testing.B) {
	sc := benchScale()
	sc.OpsPerThread = 200
	benchSetExperiment(b, harness.SkipExperiment(sc), "vas", "cas")
}

// BenchmarkExtension_BST runs the external-BST extension experiment
// (LLX/SCX vs HoH tagging on the unbalanced tree).
func BenchmarkExtension_BST(b *testing.B) {
	benchSetExperiment(b, harness.BSTExperiment(benchScale()), "hoh-tag", "llxscx")
}

// BenchmarkExtension_Chromatic runs the chromatic-tree extension
// experiment (LLX/SCX vs HoH tagging).
func BenchmarkExtension_Chromatic(b *testing.B) {
	benchSetExperiment(b, harness.ChromaticExperiment(benchScale()), "hoh-tag", "llxscx")
}

// BenchmarkExtension_StmSet compares general-purpose STM sets against the
// purpose-built HoH-tagged tree on the standard workload.
func BenchmarkExtension_StmSet(b *testing.B) {
	sc := benchScale()
	sc.Threads = []int{1, 8}
	sc.OpsPerThread = 80
	benchSetExperiment(b, harness.StmSetExperiment(sc), "tagged-set", "norec-set")
}

// --- Micro-benchmarks of the primitives -----------------------------------

func newBenchMachine(cores int) *machine.Machine {
	cfg := machine.DefaultConfig(cores)
	cfg.MemBytes = 16 << 20
	cfg.SyncWindowCycles = 0 // single-goroutine micro-benchmarks
	return machine.New(cfg)
}

// BenchmarkMicro_LoadL1Hit measures the simulator's host cost for the
// cheapest operation.
func BenchmarkMicro_LoadL1Hit(b *testing.B) {
	m := newBenchMachine(1)
	th := m.Thread(0)
	a := m.Alloc(1)
	th.Store(a, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Load(a)
	}
}

// BenchmarkMicro_TagValidateCycle measures AddTag+Validate+ClearTagSet.
func BenchmarkMicro_TagValidateCycle(b *testing.B) {
	m := newBenchMachine(1)
	th := m.Thread(0)
	a := m.Alloc(1)
	th.Store(a, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.AddTag(a, 8)
		th.Validate()
		th.ClearTagSet()
	}
}

// BenchmarkMicro_VAS measures an uncontended tag+load+VAS increment.
func BenchmarkMicro_VAS(b *testing.B) {
	m := newBenchMachine(1)
	th := m.Thread(0)
	a := m.Alloc(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.AddTag(a, 8)
		v := th.Load(a)
		if !th.VAS(a, v+1) {
			b.Fatal("uncontended VAS failed")
		}
		th.ClearTagSet()
	}
}

// BenchmarkMicro_KCAS measures k-word CAS for several widths. Every kCAS
// allocates descriptors in the simulated arena (which never recycles), so
// the machine is renewed periodically to keep the space bounded.
func BenchmarkMicro_KCAS(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "k2", 4: "k4", 8: "k8"}[k], func(b *testing.B) {
			setup := func() (*kcas.Manager, core.Thread, []core.Addr) {
				m := newBenchMachine(1)
				g := kcas.New(m)
				th := m.Thread(0)
				addrs := make([]core.Addr, k)
				for i := range addrs {
					addrs[i] = m.Alloc(1)
				}
				return g, th, addrs
			}
			g, th, addrs := setup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%10000 == 9999 {
					b.StopTimer()
					g, th, addrs = setup()
					b.StartTimer()
				}
				entries := make([]kcas.Entry, k)
				for j, a := range addrs {
					old := g.Read(th, a)
					entries[j] = kcas.Entry{Addr: a, Old: old, New: old + 1}
				}
				if !g.KCAS(th, entries) {
					b.Fatal("uncontended kCAS failed")
				}
			}
		})
	}
}

// BenchmarkMicro_SnapshotTaggedVsDoubleCollect compares the paper's tagged
// snapshot against the software double collect on 16 quiet words.
func BenchmarkMicro_SnapshotTaggedVsDoubleCollect(b *testing.B) {
	m := newBenchMachine(1)
	g := kcas.New(m)
	th := m.Thread(0)
	addrs := make([]core.Addr, 16)
	for i := range addrs {
		addrs[i] = m.Alloc(1)
	}
	b.Run("tagged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := g.Snapshot(th, addrs, 4); !ok {
				b.Fatal("quiet snapshot failed")
			}
		}
	})
	b.Run("doublecollect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.SnapshotDoubleCollect(th, addrs)
		}
	})
}

// vtagsBatch is the number of calls one iteration of the vtags rung makes.
// CI runs the bench lane at -benchtime 1x, where a single 5-100 ns call
// reads as timer noise (LoadL1Hit: 186-347 ns in bench/baseline.txt); a
// fixed batch per iteration, reported per call, is what makes the rung
// gateable. At 3 ns a call the batch is just under a millisecond, which is
// what the lane's flatness check (tags=32 against tags=1) needs.
const vtagsBatch = 1 << 18

// reportPerCall overrides ns/op with the cost of one call of a batch of the
// given size.
func reportPerCall(b *testing.B, batch int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/op")
}

// BenchmarkMicro_VtagsValidate is the bottom rung of the served-path ladder:
// one Validate over a tag set of n distinct lines on the vtags backend. A
// quiet tag set costs one load of the thread's dirty flag whatever n is —
// the CI bench lane checks tags=32 against tags=1 — and it is what every
// tagged tx.Read pays. dirty prices the other path at 16 tags: before each
// call a second thread stores a line outside the tag set on which the
// validating thread still has a sharer bit from earlier, so every Validate
// finds its flag raised and scans. The store is inside the timed region
// (one iteration is too short to time the calls apart).
func BenchmarkMicro_VtagsValidate(b *testing.B) {
	for _, n := range []int{1, 8, 16, 32} {
		b.Run(map[int]string{1: "tags=1", 8: "tags=8", 16: "tags=16", 32: "tags=32"}[n], func(b *testing.B) {
			m := vtags.New(1<<20, 1)
			th := m.Thread(0)
			base := m.Alloc(core.WordsPerLine * n)
			th.AddTag(base, core.LineSize*n)
			ok := th.TagCount() == n
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < vtagsBatch; j++ {
					ok = th.Validate() && ok
				}
			}
			reportPerCall(b, vtagsBatch)
			if !ok {
				b.Fatal("quiet tag set failed validation")
			}
		})
	}
	b.Run("dirty", func(b *testing.B) {
		const n = 16
		const calls = 1 << 14 // one shared line each
		m := vtags.New(4<<20, 2)
		th, writer := m.Thread(0), m.Thread(1)
		base := m.Alloc(core.WordsPerLine * n)
		shared := m.Alloc(core.WordsPerLine * calls)
		th.AddTag(base, core.LineSize*n)
		ok := th.TagCount() == n
		for j := 0; j < calls; j++ { // first touch of the shared lines
			writer.Store(shared+core.Addr(j*core.LineSize), 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A store takes the reader's bit off the line it writes, so the
			// batch needs a fresh sticky bit per call: tag and untag each
			// shared line, off the clock.
			b.StopTimer()
			for j := 0; j < calls; j++ {
				a := shared + core.Addr(j*core.LineSize)
				th.AddTag(a, core.WordSize)
				th.RemoveTag(a, core.WordSize)
			}
			b.StartTimer()
			for j := 0; j < calls; j++ {
				writer.Store(shared+core.Addr(j*core.LineSize), uint64(i))
				ok = th.Validate() && ok
			}
		}
		reportPerCall(b, calls)
		if !ok {
			b.Fatal("a store outside the tag set failed validation")
		}
	})
}

// BenchmarkMicro_VtagsAddTag is the other per-read primitive. hit re-tags
// the newest of 16 held lines — a tree node's child pointer after its key —
// which adds nothing; miss fills an empty set with 64 distinct lines and
// clears it, so the mean call finds 31.5 lines held, proves the line is not
// among them, resolves its state and appends.
func BenchmarkMicro_VtagsAddTag(b *testing.B) {
	const lines = 64
	setup := func() (core.Thread, core.Addr) {
		m := vtags.New(1<<20, 1, vtags.WithMaxTags(lines))
		return m.Thread(0), m.Alloc(core.WordsPerLine * lines)
	}
	b.Run("hit", func(b *testing.B) {
		th, base := setup()
		th.AddTag(base, core.LineSize*16)
		newest := base + 15*core.LineSize + core.WordSize
		ok := true
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < vtagsBatch; j++ {
				ok = th.AddTag(newest, core.WordSize) && ok
			}
		}
		reportPerCall(b, vtagsBatch)
		if !ok || th.TagCount() != 16 {
			b.Fatalf("re-tag changed the set: ok=%v, %d tags", ok, th.TagCount())
		}
	})
	b.Run("miss", func(b *testing.B) {
		th, base := setup()
		th.Store(base, 0) // install the line-state chunk outside the timer
		ok := true
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < vtagsBatch/lines; j++ {
				for l := 0; l < lines; l++ {
					ok = th.AddTag(base+core.Addr(l*core.LineSize), core.WordSize) && ok
				}
				th.ClearTagSet()
			}
		}
		reportPerCall(b, vtagsBatch)
		if !ok {
			b.Fatal("AddTag within the tag budget failed")
		}
	})
}

// BenchmarkHostOverhead measures how many *simulated* operations each
// backend completes per host second — the figure of merit for the host-time
// engineering work (see EXPERIMENTS.md, "Host-time engineering"). Each
// iteration is one mixed workload run of 4 simulated threads; simOps/hostSec
// is reported alongside the standard ns/op.
func BenchmarkHostOverhead(b *testing.B) {
	run := func(b *testing.B, mk func() (core.Memory, intset.Set)) {
		cfg := workload.Config{
			Threads: 4, KeyRange: 256, PrefillSize: 128,
			OpsPerThread: 200, Mix: workload.Update3535, Seed: 7,
		}
		mem, s := mk()
		workload.Prefill(mem, s, cfg)
		var ops uint64
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			ops += workload.Run(mem, s, cfg).Ops
		}
		if sec := time.Since(start).Seconds(); sec > 0 {
			b.ReportMetric(float64(ops)/sec, "simOps/hostSec")
		}
	}
	b.Run("machine", func(b *testing.B) {
		run(b, func() (core.Memory, intset.Set) {
			cfg := machine.DefaultConfig(4)
			cfg.MemBytes = 64 << 20
			m := machine.New(cfg)
			return m, list.NewHoH(m)
		})
	})
	b.Run("vtags", func(b *testing.B) {
		run(b, func() (core.Memory, intset.Set) {
			m := newVtags(64<<20, 4)
			return m, list.NewHoH(m)
		})
	})
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblation_MaxTags sweeps the per-core tag budget above the HoH
// tree's working window (12 lines for a=4,b=8); budgets below it are
// rejected at construction. Sufficient budgets should perform identically,
// demonstrating that Max_Tags only needs to cover the D+1-node window.
func BenchmarkAblation_MaxTags(b *testing.B) {
	for _, tags := range []int{12, 16, 32} {
		b.Run(map[int]string{12: "tags12", 16: "tags16", 32: "tags32"}[tags], func(b *testing.B) {
			e := harness.Fig6(harness.Scale{Threads: []int{8}, OpsPerThread: 100, Trials: 1})
			e.Config = func(cores int) machine.Config {
				cfg := machine.DefaultConfig(cores)
				cfg.MemBytes = 256 << 20
				cfg.MaxTags = tags
				return cfg
			}
			// Only the tagged variant is sensitive to the budget.
			e.Variants = e.Variants[1:]
			var mops float64
			for i := 0; i < b.N; i++ {
				points := e.Run()
				mops += points[0].ThroughputMops
			}
			b.ReportMetric(mops/float64(b.N), "simMops")
		})
	}
}

// BenchmarkAblation_L1Size shrinks the L1 until tagged lines suffer
// capacity (spurious) evictions, probing the paper's claim that spurious
// invalidations are negligible "for reasonable data structure sizes" — and
// showing where that stops holding.
func BenchmarkAblation_L1Size(b *testing.B) {
	for _, kb := range []int{2, 8, 32} {
		b.Run(map[int]string{2: "l1_2KB", 8: "l1_8KB", 32: "l1_32KB"}[kb], func(b *testing.B) {
			e := harness.Fig6(harness.Scale{Threads: []int{8}, OpsPerThread: 100, Trials: 1})
			e.Config = func(cores int) machine.Config {
				cfg := machine.DefaultConfig(cores)
				cfg.MemBytes = 256 << 20
				cfg.L1Bytes = kb << 10
				return cfg
			}
			e.Variants = e.Variants[1:] // tagged variant only
			var spurious, fails float64
			for i := 0; i < b.N; i++ {
				points := e.Run()
				spurious += points[0].SpuriousPerMilOps
				fails += points[0].ValidateFailPct
			}
			b.ReportMetric(spurious/float64(b.N), "spurious/Mop")
			b.ReportMetric(fails/float64(b.N), "vfailPct")
		})
	}
}

// BenchmarkAblation_ValidateCost sweeps the hardware validation latency,
// quantifying how the HoH list's traversal overhead depends on it (the
// paper assumes validation is hidden in the load buffer).
func BenchmarkAblation_ValidateCost(b *testing.B) {
	for _, vc := range []uint64{0, 1, 4} {
		b.Run(map[uint64]string{0: "v0", 1: "v1", 4: "v4"}[vc], func(b *testing.B) {
			e := harness.Fig2(harness.Scale{Threads: []int{8}, OpsPerThread: 120, Trials: 1})
			e.Config = func(cores int) machine.Config {
				cfg := machine.DefaultConfig(cores)
				cfg.MemBytes = 64 << 20
				cfg.ValidateCycles = vc
				return cfg
			}
			var speedup float64
			for i := 0; i < b.N; i++ {
				speedup += harness.Speedup(e.Run(), "hoh", "harris", 8)
			}
			b.ReportMetric(speedup/float64(b.N), "speedup")
		})
	}
}

// BenchmarkAblation_SoftwareEmulation compares the versioned software
// emulation (vtags) against the hardware model in host time, the "what if
// tags were software" ablation. It reports host ns/op for the same HoH
// list workload.
func BenchmarkAblation_SoftwareEmulation(b *testing.B) {
	run := func(b *testing.B, mem core.Memory, s intset.Set) {
		cfg := workload.Config{
			Threads: 4, KeyRange: 256, PrefillSize: 128,
			OpsPerThread: 100, Mix: workload.Update3535, Seed: 1,
		}
		workload.Prefill(mem, s, cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			workload.Run(mem, s, cfg)
		}
	}
	b.Run("machine", func(b *testing.B) {
		cfg := machine.DefaultConfig(4)
		cfg.MemBytes = 64 << 20
		m := machine.New(cfg)
		run(b, m, list.NewHoH(m))
	})
	b.Run("vtags", func(b *testing.B) {
		m := newVtags(64<<20, 4)
		run(b, m, list.NewHoH(m))
	})
}

// BenchmarkAblation_Protocol compares MESI / MESIF / MOESI pricing on the
// HoH list workload — the paper's "extension to MOESI/MESIF-style
// implementations", quantified.
func BenchmarkAblation_Protocol(b *testing.B) {
	for _, p := range []machine.Protocol{machine.MESI, machine.MESIF, machine.MOESI} {
		b.Run(p.String(), func(b *testing.B) {
			e := harness.Fig2(harness.Scale{Threads: []int{8}, OpsPerThread: 120, Trials: 1})
			e.Config = func(cores int) machine.Config {
				cfg := machine.DefaultConfig(cores)
				cfg.MemBytes = 64 << 20
				cfg.Protocol = p
				return cfg
			}
			e.Variants = e.Variants[2:] // hoh only
			var mops float64
			for i := 0; i < b.N; i++ {
				mops += e.Run()[0].ThroughputMops
			}
			b.ReportMetric(mops/float64(b.N), "simMops")
		})
	}
}

// BenchmarkAblation_FallbackThreshold measures the HLE-style fallback
// controller's trip rate sensitivity: with a hostile fast path, a lower
// threshold reaches the slow path sooner.
func BenchmarkAblation_FallbackThreshold(b *testing.B) {
	for _, thr := range []int{2, 16} {
		b.Run(map[int]string{2: "thr2", 16: "thr16"}[thr], func(b *testing.B) {
			m := newVtags(1<<20, 1)
			fb := core.NewFallback(m)
			fb.Threshold = thr
			th := m.Thread(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb.Run(th, fb.Threshold, func() bool { return false }, func() {})
			}
		})
	}
}

// newVtags constructs the software-emulation backend.
func newVtags(bytes, threads int) core.Memory { return vtags.New(bytes, threads) }

// BenchmarkServe_Pipelined measures the served request path end to end —
// TCP, decode, STM op, encode — with one pipelined client connection per
// engine worker, and reports the service-time p99 (servedP99ns) that CI
// compares the traced run against.
func BenchmarkServe_Pipelined(b *testing.B) {
	for _, tagged := range []bool{true, false} {
		b.Run(map[bool]string{true: "tagged", false: "norec"}[tagged], func(b *testing.B) {
			benchServe(b, tagged, false)
		})
	}
}

// BenchmarkServe_PipelinedSpans is the same served path with the flight
// recorder armed (request spans + tail sampling at the production default
// thresholds). CI compares its p99 (tracedP99ns) with
// BenchmarkServe_Pipelined/tagged's servedP99ns in the same run, best of
// three counts each, and fails past 3.0x: single-iteration p99s swing too
// far between host regimes for a tighter bound.
func BenchmarkServe_PipelinedSpans(b *testing.B) {
	benchServe(b, true, true)
}

func benchServe(b *testing.B, tagged, spans bool) {
	const (
		workers  = 4
		batch    = 1024
		keyRange = 4096
	)
	cfg := serve.Config{
		Addr:        "127.0.0.1:0",
		StreamEvery: 10 * time.Millisecond,
		Engine: serve.EngineConfig{
			Workers: workers, MemBytes: 256 << 20, Tagged: tagged, Relations: 256,
		},
	}
	if spans {
		cfg.Flight = serve.FlightConfig{
			Spans: true, TailLatency: time.Millisecond, TailAttempts: 4,
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}

	type cl struct {
		conn net.Conn
		bw   *bufio.Writer
		br   *bufio.Reader
	}
	clients := make([]cl, workers)
	for i := range clients {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = cl{conn, bufio.NewWriterSize(conn, 64<<10), bufio.NewReaderSize(conn, 64<<10)}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cli := &clients[c]
				rng := uint64(c)*0x9e3779b97f4a7c15 + uint64(i) + 1
				var buf []byte
				for j := 0; j < batch; j++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					key := rng % keyRange
					var req serve.Request
					switch j % 5 {
					case 0:
						req = serve.Request{Op: serve.CmdPut, A: key, B: rng%999 + 1}
					case 1, 2:
						req = serve.Request{Op: serve.CmdGet, A: key}
					case 3:
						req = serve.Request{Op: serve.CmdSAdd, A: key}
					default:
						req = serve.Request{Op: serve.CmdSHas, A: key}
					}
					buf = serve.AppendRequest(buf[:0], &req)
					if _, err := cli.bw.Write(buf); err != nil {
						b.Error(err)
						return
					}
				}
				if err := cli.bw.Flush(); err != nil {
					b.Error(err)
					return
				}
				for j := 0; j < batch; j++ {
					if _, err := cli.br.ReadBytes('\n'); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()

	for i := range clients {
		clients[i].conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
	sum := srv.Summarize()
	if spans {
		b.ReportMetric(sum.P99NS, "tracedP99ns")
		if fr := srv.FlightRecorder(); fr != nil {
			recorded, _ := fr.Totals()
			b.ReportMetric(float64(recorded)/float64(b.N), "spans/iter")
		}
	} else {
		b.ReportMetric(sum.P99NS, "servedP99ns")
	}
	b.ReportMetric(float64(sum.Requests)/b.Elapsed().Seconds(), "servedReqs/s")
}
