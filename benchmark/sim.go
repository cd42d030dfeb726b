package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/stm"
	"repro/internal/telemetry"
	"repro/internal/vacation"
	"repro/internal/workload"
)

const (
	simThreads = 8
	// simMemBytes sizes each machine's simulated space. Neither the LLX/SCX
	// tree nor the STM recycles memory, so a cell consumes ~20 MiB of it per
	// host second; the space is materialised lazily, so a generous bound
	// costs nothing and does not enter any simulated result.
	simMemBytes = 4 << 30
)

// simCell is one variant of a simulated workload on its own machine. Index
// 0 of a workload's cells is the untagged baseline, index 1 the tagged
// variant.
type simCell struct {
	name    string
	runName string // span name of a measured run
	m       *machine.Machine
	prefill time.Duration // host time of the last prefill or populate

	// Totals over the measured segments.
	ops     uint64
	host    time.Duration
	stats   machine.Stats       // summed Snapshot diffs, see addDiff
	lat     telemetry.Histogram // per-op simulated cycles
	retries telemetry.Histogram
	segs    []cellSeg

	// sim-tree
	set  intset.Set
	size int // keys the model says are in the set

	// sim-vacation
	mk                         func(core.Memory) *stm.TM
	tm                         *stm.TM
	mgr                        *vacation.Manager
	commits, aborts, tagAborts uint64 // over the measured segments
}

// cellSeg is one measured segment of one cell.
type cellSeg struct {
	ops    uint64
	cycles uint64
	host   time.Duration
	p50    float64 // simulated cycles
	p99    float64
}

func (c *cellSeg) simRate(clockHz float64) float64 {
	return float64(c.ops) / (float64(c.cycles) / clockHz)
}

// addDiff adds after − before to acc, for the counters the layer metrics read.
func addDiff(acc *machine.Stats, after, before machine.Stats) {
	acc.L1Hits += after.L1Hits - before.L1Hits
	acc.L2Hits += after.L2Hits - before.L2Hits
	acc.RemoteFills += after.RemoteFills - before.RemoteFills
	acc.MemFills += after.MemFills - before.MemFills
	acc.InvalidationsSent += after.InvalidationsSent - before.InvalidationsSent
	acc.TagAdds += after.TagAdds - before.TagAdds
	acc.Validates += after.Validates - before.Validates
	acc.ValidateFails += after.ValidateFails - before.ValidateFails
	acc.VASAttempts += after.VASAttempts - before.VASAttempts
	acc.VASFails += after.VASFails - before.VASFails
	acc.IASAttempts += after.IASAttempts - before.IASAttempts
	acc.IASFails += after.IASFails - before.IASFails
	acc.SpuriousEvictions += after.SpuriousEvictions - before.SpuriousEvictions
	acc.TotalCycles += after.TotalCycles - before.TotalCycles
	acc.Energy += after.Energy - before.Energy
}

// record books one measured segment of the cell.
func (c *simCell) record(cs cellSeg, after, before machine.Stats) {
	c.ops += cs.ops
	c.host += cs.host
	c.segs = append(c.segs, cs)
	addDiff(&c.stats, after, before)
}

// forget drops what the warm-up booked.
func (c *simCell) forget() {
	c.ops, c.host, c.segs, c.stats = 0, 0, nil, machine.Stats{}
	c.lat.Reset()
	c.retries.Reset()
}

// simSegment folds the two cells' last segment into the common shape: rate
// and latency are the tagged variant's, in simulated time; host and CPU time
// cover both variants.
func simSegment(cells []*simCell, cpu time.Duration) segment {
	hz := cells[1].m.Config().ClockHz
	tagged := cells[1].segs[len(cells[1].segs)-1]
	out := segment{
		cpu: cpu, rate: tagged.simRate(hz),
		p50us: tagged.p50 / hz * 1e6, p99us: tagged.p99 / hz * 1e6,
	}
	for _, c := range cells {
		last := c.segs[len(c.segs)-1]
		out.ops += last.ops
		out.host += last.host
	}
	return out
}

// --- sim-tree ----------------------------------------------------------

// simTree is Figure 6's shape: the (a,b)-tree, LLX/SCX baseline against
// hand-over-hand tagging, 35 % inserts / 35 % deletes on 8 simulated cores.
// Both trees are warmed once and measured segment after segment: their size
// stays at half the key range, so segments are exchangeable.
type simTree struct {
	seed         int64
	opsPerThread int
	cells        []*simCell
	tc           *tracer
	tr           *track // nil on an untraced run
}

const (
	treeKeyRange     = 8192
	treeOpsPerThread = 12000
)

func (s *simTree) config(seed int64) workload.Config {
	return workload.Config{
		Threads: simThreads, KeyRange: treeKeyRange, PrefillSize: treeKeyRange / 2,
		OpsPerThread: s.opsPerThread, Mix: workload.Update3535, Seed: seed,
	}
}

func setupSimTree(seed int64, scale int, tc *tracer) (instance, error) {
	s := &simTree{seed: seed, opsPerThread: max(treeOpsPerThread/scale, 50), tc: tc}
	if tc != nil {
		s.tr = tc.track("sim", 1<<12)
	}
	for _, v := range harness.TreeVariants() {
		t0 := time.Now()
		cfg := machine.DefaultConfig(simThreads)
		cfg.MemBytes = simMemBytes
		m := machine.New(cfg)
		c := &simCell{name: v.Name, runName: "run:" + v.Name, m: m, set: v.Build(m)}
		t1 := time.Now()
		c.size = workload.Prefill(m, c.set, s.config(seed)).TotalFill
		c.prefill = time.Since(t1)
		s.tr.add("build", tc.since(t0), tc.since(t1), 0)
		s.tr.add("prefill", tc.since(t1), tc.since(time.Now()), 0)
		s.cells = append(s.cells, c)
	}
	s.segment(-1, false) // warm-up
	for _, c := range s.cells {
		c.forget()
	}
	return s, nil
}

func (s *simTree) segment(i int, traced bool) segment {
	cpu0 := cpuTime()
	for ci, c := range s.cells {
		cfg := s.config(subSeed(s.seed, int64(i)))
		// Harness telemetry supplies the simulated per-op latency; simulated
		// results are pinned identical with it on.
		set := telemetry.NewSet(simThreads)
		c.m.SetTelemetry(set)
		cfg.Telemetry = set
		t0 := time.Now()
		before := c.m.Snapshot()
		counts := workload.Run(c.m, c.set, cfg)
		after := c.m.Snapshot()
		host := time.Since(t0)
		c.m.SetTelemetry(nil)
		set.Flush()
		agg := set.Merge()
		c.size += int(counts.Inserts) - int(counts.Deletes)
		c.lat.Merge(&agg.OpLatency)
		c.retries.Merge(&agg.OpRetries)
		c.record(cellSeg{
			ops: counts.Ops, cycles: after.MaxCycles - before.MaxCycles, host: host,
			p50: agg.OpLatency.Quantile(0.50), p99: agg.OpLatency.Quantile(0.99),
		}, after, before)
		if traced {
			s.tr.add(c.runName, s.tc.since(t0), s.tc.since(t0.Add(host)), uint64(ci))
		}
	}
	return simSegment(s.cells, cpuTime()-cpu0)
}

// finish compares each tree's size by traversal with the model: prefill
// plus successful inserts minus successful deletes.
func (s *simTree) finish() error {
	for _, c := range s.cells {
		snap, ok := c.set.(intset.Snapshotter)
		if !ok {
			return fmt.Errorf("%s: set cannot enumerate its keys", c.name)
		}
		if got := len(snap.Keys(c.m.Thread(0))); got != c.size {
			return fmt.Errorf("%s: traversal finds %d keys, prefill+inserts-deletes = %d", c.name, got, c.size)
		}
	}
	return nil
}

// --- sim-vacation ------------------------------------------------------

// simVacation is Figure 8's shape: STAMP Vacation, NOrec against tagged
// NOrec, on the machine backend at 8 threads. Vacation is not stationary —
// reservation lists grow and capacity drains, costing 3-4 % of throughput per
// 4096 transactions — so every segment starts, as a Figure 8 cell does, from
// freshly populated tables on a fresh machine; the populate is not timed.
type simVacation struct {
	seed     int64
	params   vacation.Params
	txPerSeg int // transactions per client per segment
	cells    []*simCell
	used     bool  // the current tables have run a segment
	broken   error // first invariant failure of tables since replaced
	populate time.Duration
	tc       *tracer
	tr       *track // nil on an untraced run
}

const vacationTxPerSeg = 1024

func setupSimVacation(seed int64, scale int, tc *tracer) (instance, error) {
	e := harness.Fig8(false)
	// The scaled-down serializability verification of both STM variants.
	if err := e.VerifySerializable(); err != nil {
		return nil, err
	}
	s := &simVacation{seed: seed, params: e.Params, txPerSeg: max(vacationTxPerSeg/scale, 4), tc: tc}
	s.params.Relations = max(s.params.Relations/scale, 64)
	if tc != nil {
		s.tr = tc.track("sim", 1<<12)
	}
	s.cells = []*simCell{
		{name: "norec", runName: "run:norec", mk: stm.NewNOrec},
		{name: "tagged", runName: "run:tagged", mk: stm.NewTagged},
	}
	s.repopulate()
	return s, nil
}

// repopulate gives every cell a fresh machine, TM and populated manager.
// The table contents depend on the run seed only, so segments differ in
// their transactions, not their tables.
func (s *simVacation) repopulate() {
	s.populate = 0
	for _, c := range s.cells {
		t0 := time.Now()
		cfg := machine.DefaultConfig(simThreads)
		cfg.MemBytes = simMemBytes
		cfg.MaxTags = 256 // as harness.VacationExperiment: read sets span tens of lines
		c.m = machine.New(cfg)
		c.tm = c.mk(c.m)
		c.mgr = vacation.NewManager(c.m, c.tm)
		t1 := time.Now()
		vacation.Populate(c.mgr, c.m.Thread(0), s.params, subSeed(s.seed, -2))
		c.prefill = time.Since(t1)
		s.populate += c.prefill
		s.tr.add("build", s.tc.since(t0), s.tc.since(t1), 0)
		s.tr.add("populate", s.tc.since(t1), s.tc.since(time.Now()), 0)
	}
	s.used = false
}

func (s *simVacation) segment(i int, traced bool) segment {
	if s.used {
		if err := s.finish(); err != nil {
			s.broken = err
		}
		s.repopulate()
	}
	s.used = true
	cpu0 := cpuTime()
	one := s.params
	one.Transactions = 1
	for ci, c := range s.cells {
		lats := make([][]int64, simThreads)
		commits, aborts, tagAborts := c.tm.Commits.Load(), c.tm.Aborts.Load(), c.tm.TagAborts.Load()
		t0 := time.Now()
		c.m.BeginEpoch()
		before := c.m.Snapshot()
		var ready, wg sync.WaitGroup
		start := make(chan struct{})
		ready.Add(simThreads)
		for w := 0; w < simThreads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := c.m.Thread(w).(*machine.Thread)
				th.SetActive(true)
				defer th.SetActive(false)
				lat := make([]int64, 0, s.txPerSeg)
				ready.Done()
				<-start
				// One transaction per Client call, so each one's simulated
				// latency can be read off the core's clock from outside.
				for t := 0; t < s.txPerSeg; t++ {
					c0, _ := th.OpClock()
					vacation.Client(c.mgr, th, one, subSeed(s.seed, int64(i), int64(w), int64(t)))
					c1, _ := th.OpClock()
					lat = append(lat, int64(c1-c0))
				}
				lats[w] = lat
			}()
		}
		ready.Wait()
		close(start)
		wg.Wait()
		after := c.m.Snapshot()
		host := time.Since(t0)
		c.commits += c.tm.Commits.Load() - commits
		c.aborts += c.tm.Aborts.Load() - aborts
		c.tagAborts += c.tm.TagAborts.Load() - tagAborts
		var all []int64
		for _, l := range lats {
			all = append(all, l...)
		}
		slices.Sort(all)
		for _, v := range all {
			c.lat.Observe(uint64(v))
		}
		c.record(cellSeg{
			ops: uint64(len(all)), cycles: after.MaxCycles - before.MaxCycles, host: host,
			p50: percentile(all, 0.50), p99: percentile(all, 0.99),
		}, after, before)
		if traced {
			s.tr.add(c.runName, s.tc.since(t0), s.tc.since(t0.Add(host)), uint64(ci))
		}
	}
	return simSegment(s.cells, cpuTime()-cpu0)
}

// finish checks each manager's conservation invariants at quiescence, and
// reports a failure of any tables replaced earlier in the run.
func (s *simVacation) finish() error {
	if s.broken != nil {
		return s.broken
	}
	for _, c := range s.cells {
		if ok, detail := c.mgr.CheckTables(c.m.Thread(0)); !ok {
			return fmt.Errorf("%s: reservation tables: %s", c.name, detail)
		}
	}
	return nil
}
