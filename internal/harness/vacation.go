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
	// Workers bounds the host worker pool cells fan out over: 0 serial,
	// -1 one per host CPU (see parallel.go). Results are identical for
	// every setting.
	Workers int
	// Verify makes Run execute VerifySerializable first and panic on a
	// violation: measured throughput of a non-serializable STM is
	// meaningless, so the failure is fatal rather than a warning.
	Verify bool
}

// VerifySerializable runs a scaled-down recorded pass of the workload on
// the machine backend for each STM variant and checks — via
// linearizability.SerializableMapModel — that the committed transactions
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
	for _, v := range []struct {
		name string
		mk   func(core.Memory) *stm.TM
	}{
		{"norec", stm.NewNOrec},
		{"tagged", stm.NewTagged},
	} {
		cfg := machine.DefaultConfig(workers)
		cfg.MemBytes = 16 << 20
		cfg.MaxTags = 256
		m := machine.New(cfg)
		rep := vacation.RunSerializeSuite(m, v.mk(m), p, workers, 1)
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
		Verify: true,
		Name:   "fig8",
		Title: fmt.Sprintf("STAMP Vacation (-n%d -q%d -u%d -r%d -t%d), NOrec vs tagged",
			p.QueriesPerTx, p.PercentQuery, p.PercentUser, p.Relations, p.Transactions),
		Threads:  threads,
		Trials:   1,
		Params:   p,
		MemBytes: mem,
	}
}

// Run executes the experiment for both STM variants.
func (e *VacationExperiment) Run() []VacationPoint {
	if e.Verify {
		if err := e.VerifySerializable(); err != nil {
			panic(err)
		}
	}
	variants := []struct {
		name string
		mk   func(core.Memory) *stm.TM
	}{
		{"norec", stm.NewNOrec},
		{"tagged", stm.NewTagged},
	}
	trials := e.Trials
	if trials <= 0 {
		trials = 1
	}
	nt := len(e.Threads)
	raw := make([]VacationPoint, len(variants)*nt*trials)
	forEachCell(resolveWorkers(e.Workers), len(raw), func(i int) {
		trial := i % trials
		n := e.Threads[i/trials%nt]
		v := variants[i/(trials*nt)]
		raw[i] = e.runOne(v.mk, v.name, n, int64(trial))
	})
	points := make([]VacationPoint, 0, len(variants)*nt)
	for vi, v := range variants {
		for ni, n := range e.Threads {
			acc := VacationPoint{Variant: v.name, Threads: n}
			for trial := 0; trial < trials; trial++ {
				p := raw[(vi*nt+ni)*trials+trial]
				acc.ThroughputKtx += p.ThroughputKtx
				acc.MissRatePct += p.MissRatePct
				acc.EnergyPerTx += p.EnergyPerTx
				acc.AbortsPerTx += p.AbortsPerTx
			}
			f := float64(trials)
			acc.ThroughputKtx /= f
			acc.MissRatePct /= f
			acc.EnergyPerTx /= f
			acc.AbortsPerTx /= f
			points = append(points, acc)
		}
	}
	return points
}

func (e *VacationExperiment) runOne(mk func(core.Memory) *stm.TM, name string, threads int, trial int64) VacationPoint {
	cfg := machine.DefaultConfig(threads)
	cfg.MemBytes = e.MemBytes
	// Transactional read sets span tens of cache lines (red-black tree
	// paths across several tables); the STM experiment models a larger
	// Max_Tags so the tagged fast path covers typical transactions.
	cfg.MaxTags = 256
	m := machine.New(cfg)
	tm := mk(m)
	mgr := vacation.NewManager(m, tm)
	vacation.Populate(mgr, m.Thread(0), e.Params, 1+trial)

	settleHeap()
	before := m.Snapshot()
	abortsBefore := tm.Aborts.Load()
	core.RunPhase(m, threads, func(w int, th core.Thread) {
		vacation.Client(mgr, th, e.Params, int64(1000+w)+trial*131)
	})
	after := m.Snapshot()

	tx := uint64(threads * e.Params.Transactions)
	cycles := after.MaxCycles - before.MaxCycles
	p := VacationPoint{Variant: name, Threads: threads}
	if cycles > 0 {
		simSeconds := float64(cycles) / cfg.ClockHz
		p.ThroughputKtx = float64(tx) / simSeconds / 1e3
	}
	if acc := after.Accesses() - before.Accesses(); acc > 0 {
		p.MissRatePct = 100 * float64(after.Misses()-before.Misses()) / float64(acc)
	}
	if tx > 0 {
		p.EnergyPerTx = (after.Energy - before.Energy) / float64(tx)
		p.AbortsPerTx = float64(tm.Aborts.Load()-abortsBefore) / float64(tx)
	}
	return p
}

// PrintVacation writes the Figure 8 table.
func PrintVacation(w io.Writer, title string, points []VacationPoint) {
	threadSet := map[int]bool{}
	var threads []int
	for _, p := range points {
		if !threadSet[p.Threads] {
			threadSet[p.Threads] = true
			threads = append(threads, p.Threads)
		}
	}
	idx := map[string]map[int]VacationPoint{}
	var variants []string
	for _, p := range points {
		if idx[p.Variant] == nil {
			idx[p.Variant] = map[int]VacationPoint{}
			variants = append(variants, p.Variant)
		}
		idx[p.Variant][p.Threads] = p
	}
	fmt.Fprintf(w, "== %s ==\n", title)
	metrics := []struct {
		name string
		get  func(VacationPoint) float64
	}{
		{"throughput (Ktx/s)", func(p VacationPoint) float64 { return p.ThroughputKtx }},
		{"L1 miss rate (%)", func(p VacationPoint) float64 { return p.MissRatePct }},
		{"energy/tx (units)", func(p VacationPoint) float64 { return p.EnergyPerTx }},
		{"aborts/tx", func(p VacationPoint) float64 { return p.AbortsPerTx }},
	}
	for _, met := range metrics {
		fmt.Fprintf(w, "-- %s --\n", met.name)
		fmt.Fprintf(w, "%-14s", "threads")
		for _, t := range threads {
			fmt.Fprintf(w, "%10d", t)
		}
		fmt.Fprintln(w)
		for _, v := range variants {
			fmt.Fprintf(w, "%-14s", v)
			for _, t := range threads {
				fmt.Fprintf(w, "%10.3f", met.get(idx[v][t]))
			}
			fmt.Fprintln(w)
		}
	}
}
