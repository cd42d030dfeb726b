package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stm"
	"repro/internal/vacation"
)

// VacationExperiment reproduces Figure 8: STAMP Vacation on NOrec vs
// tagged NOrec.
type VacationExperiment struct {
	Name    string
	Title   string
	Threads []int
	Trials  int
	Params  vacation.Params
	// MemBytes sizes the simulated space (transaction retries allocate).
	MemBytes int
	// Workers bounds the host goroutines cells fan out over, as in
	// SetExperiment. Results are identical for every setting.
	Workers int
}

// VerifySerializable runs a scaled-down recorded pass of the workload on
// the machine backend for each STM variant and checks — via
// linearizability.CheckSerializable — that the committed transactions
// admit a serial order consistent with real time, and that the tables
// conserve capacity. The returned error embeds the printed counterexample
// on violation. The pass is scaled down because the checker replays whole
// read/write-set histories; correctness of the protocol, not the
// parameter scale, is what is being certified.
func (e *VacationExperiment) VerifySerializable() error {
	p := e.Params
	if p.Relations > 8 {
		p.Relations = 8
	}
	if p.Transactions > 8 {
		p.Transactions = 8
	}
	const workers = 3
	for _, v := range tmVariants {
		cfg := machine.DefaultConfig(workers)
		cfg.MemBytes = 16 << 20
		cfg.MaxTags = 256
		m := machine.New(cfg)
		rep := vacation.RunSerializeSuite(m, v.mk(m), 0, 0, p, workers, 1)
		if err := rep.Err(); err != nil {
			return fmt.Errorf("vacation/%s: %w", v.name, err)
		}
	}
	return nil
}

// VacationPoint is one measured (variant, threads) cell.
type VacationPoint struct {
	Variant string
	Threads int

	// ThroughputKtx is committed transactions per simulated millisecond
	// (thousands of transactions per simulated second).
	ThroughputKtx float64
	MissRatePct   float64
	EnergyPerTx   float64
	AbortsPerTx   float64
}

// Fig8 returns the Figure 8 experiment. When quick is true, the tables and
// transaction counts are scaled down from the paper's -r16384 -t4096 so the
// experiment finishes in seconds; the mix parameters (-n4 -q60 -u90) are
// identical either way.
func Fig8(quick bool) *VacationExperiment {
	p := vacation.PaperParams()
	threads := []int{1, 2, 4, 8, 16, 32, 64}
	mem := 512 << 20
	if quick {
		p.Relations = 1024
		p.Transactions = 64
		threads = []int{1, 2, 4, 8}
		mem = 128 << 20
	} else {
		// Keep the paper's tables; bound per-client transactions so the
		// 64-core sweep stays tractable in a functional simulator.
		p.Transactions = 256
	}
	return &VacationExperiment{
		Name: "fig8",
		Title: fmt.Sprintf("STAMP Vacation (-n%d -q%d -u%d -r%d -t%d), NOrec vs tagged",
			p.QueriesPerTx, p.PercentQuery, p.PercentUser, p.Relations, p.Transactions),
		Threads:  threads,
		Trials:   1,
		Params:   p,
		MemBytes: mem,
	}
}

// tmVariants are the two STMs Figure 8 compares.
var tmVariants = []struct {
	name string
	mk   func(core.Memory) *stm.TM
}{
	{"norec", stm.NewNOrec},
	{"tagged", stm.NewTagged},
}

// Run executes the experiment for both STM variants. It runs
// VerifySerializable first and panics on a violation: measured throughput
// of a non-serializable STM is meaningless, so the failure is fatal rather
// than a warning.
func (e *VacationExperiment) Run() []VacationPoint {
	if err := e.VerifySerializable(); err != nil {
		panic(err)
	}
	return grid(e.Workers, len(tmVariants), len(e.Threads), e.Trials, func(v, n, trial int) VacationPoint {
		return e.runOne(v, e.Threads[n], int64(trial))
	}, meanOfTrials[VacationPoint])
}

func (e *VacationExperiment) runOne(variant, threads int, trial int64) VacationPoint {
	cfg := machine.DefaultConfig(threads)
	cfg.MemBytes = e.MemBytes
	// Transactional read sets span tens of cache lines (red-black tree
	// paths across several tables); the STM experiment models a larger
	// Max_Tags so the tagged fast path covers typical transactions.
	cfg.MaxTags = 256
	m := machine.New(cfg)
	tm := tmVariants[variant].mk(m)
	mgr := vacation.NewManager(m, tm)
	vacation.Populate(mgr, m.Thread(0), e.Params, 1+trial)

	aborts := tm.Aborts.Load()
	ph := timed(m, func() uint64 {
		core.RunPhase(m, threads, func(w int, th core.Thread) {
			vacation.Client(mgr, th, e.Params, int64(1000+w)+trial*131)
		})
		return uint64(threads * e.Params.Transactions)
	})
	return VacationPoint{
		Variant:       tmVariants[variant].name,
		Threads:       threads,
		ThroughputKtx: ph.rate(1e3),
		MissRatePct:   ph.missPct(),
		EnergyPerTx:   ph.perOp(ph.Energy),
		AbortsPerTx:   ph.perOp(float64(tm.Aborts.Load() - aborts)),
	}
}

// Print writes the Figure 8 table.
func (e *VacationExperiment) Print(w io.Writer, points []VacationPoint) {
	table[VacationPoint]{
		axis:  "threads",
		width: 14,
		at:    func(p VacationPoint) (string, int) { return p.Variant, p.Threads },
		metrics: []metric[VacationPoint]{
			{name: "throughput (Ktx/s)", get: func(p VacationPoint) float64 { return p.ThroughputKtx }},
			{name: "L1 miss rate (%)", get: func(p VacationPoint) float64 { return p.MissRatePct }},
			{name: "energy/tx (units)", get: func(p VacationPoint) float64 { return p.EnergyPerTx }},
			{name: "aborts/tx", get: func(p VacationPoint) float64 { return p.AbortsPerTx }},
		},
	}.print(w, e.Title, points)
}
