package harness

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/abtree"
	"repro/internal/intset"
	"repro/internal/list"
	"repro/internal/machine"
	"repro/internal/sets"
	"repro/internal/workload"
)

// ElisionExperiment measures the fallback-path behaviour (Section 3): how
// often operations complete on the tagged fast path versus the software
// slow path as the L1 shrinks and spurious evictions rise.
type ElisionExperiment struct {
	Name    string
	Title   string
	Threads int
	// L1Lines sweeps the L1 capacity in cache lines.
	L1Lines      []int
	OpsPerThread int
	KeyRange     uint64
	Seed         int64
	// Workers bounds the host goroutines cells fan out over, as in
	// SetExperiment. Results are identical for every setting.
	Workers int
}

// ElisionPoint is one measured cell.
type ElisionPoint struct {
	Structure   string
	L1Lines     int
	FastPct     float64 // operations committing on the fast path
	SpuriousPct float64 // validation failures per validation
	Mops        float64
}

// NewElisionExperiment returns the default sweep.
func NewElisionExperiment(quick bool) *ElisionExperiment {
	e := &ElisionExperiment{
		Name:         "elision",
		Title:        "Fallback trip rate vs L1 size (elided list & tree)",
		Threads:      4,
		L1Lines:      []int{8, 32, 128, 512},
		OpsPerThread: 300,
		KeyRange:     512,
		Seed:         42,
	}
	if quick {
		e.OpsPerThread = 120
		e.L1Lines = []int{8, 64, 512}
	}
	return e
}

// Run executes the sweep for both elided structures, ordered by L1 size
// then structure.
func (e *ElisionExperiment) Run() []ElisionPoint {
	return grid(e.Workers, len(e.L1Lines), 2, 1, func(l, tree, _ int) ElisionPoint {
		return e.runOne(e.L1Lines[l], tree == 1)
	}, meanOfTrials[ElisionPoint])
}

func (e *ElisionExperiment) runOne(lines int, tree bool) ElisionPoint {
	mcfg := machine.DefaultConfig(e.Threads)
	mcfg.MemBytes = 256 << 20
	mcfg.L1Bytes = lines * 64
	if lines < 8 {
		mcfg.L1Ways = 1
	} else if lines < 64 {
		mcfg.L1Ways = 2
	}
	m := machine.New(mcfg)
	p := ElisionPoint{Structure: "list", L1Lines: lines}
	var s intset.Set
	var fast, slow *atomic.Uint64
	if tree {
		// Elided (a,b)-tree (HoH fast / LLX-SCX slow).
		t := abtree.NewElided(m, sets.TreeA, sets.TreeB, 0)
		p.Structure, s, fast, slow = "abtree", t, &t.FastCommits, &t.SlowCommits
	} else {
		// Elided list (VAS fast / Harris slow).
		l := list.NewElided(m, 0)
		s, fast, slow = l, &l.FastCommits, &l.SlowCommits
	}
	cfg := workload.Config{
		Threads: e.Threads, KeyRange: e.KeyRange, PrefillSize: int(e.KeyRange / 2),
		OpsPerThread: e.OpsPerThread, Mix: workload.Update3535, Seed: e.Seed,
	}
	workload.Prefill(m, s, cfg)
	ph := timed(m, func() uint64 { return workload.Run(m, s, cfg).Ops })
	f := fast.Load()
	p.FastPct = pct(f, f+slow.Load())
	p.SpuriousPct = ph.validateFailPct()
	p.Mops = ph.rate(1e6)
	return p
}

// Print writes the sweep as one row per point.
func (e *ElisionExperiment) Print(w io.Writer, points []ElisionPoint) {
	fmt.Fprintf(w, "== %s ==\n", e.Title)
	fmt.Fprintf(w, "%-10s %10s %12s %14s %10s\n", "structure", "L1 lines", "fast-path %", "validate-fail %", "Mops/s")
	for _, p := range points {
		fmt.Fprintf(w, "%-10s %10d %12.2f %14.3f %10.3f\n",
			p.Structure, p.L1Lines, p.FastPct, p.SpuriousPct, p.Mops)
	}
}
