// Package schedexplore is a deterministic cycle-level schedule explorer
// for the machine backend. Where internal/schedfuzz perturbs real
// goroutine scheduling at the core.Memory operation boundary, this package
// takes scheduling over entirely: it installs a machine.Gate, serializes
// the simulated cores, and decides at every scheduling point — including
// the intra-operation points between directory-lock acquisitions — which
// core advances next and for how many simulated cycles. Every directory
// lock acquisition ordering and coherence message ordering is therefore
// reachable, and every execution is a pure function of the strategy's
// seed: replaying a seed reproduces the machine trace bit for bit.
//
// Four strategies are provided: a seeded random walk, PCT-style priority
// schedules (Burckhardt et al.'s probabilistic concurrency testing: random
// priorities with d-1 random priority-change points, good at low-depth
// bugs), a bounded exhaustive mode for small configurations (stateless
// depth-first enumeration of all schedules by choice-prefix replay), and
// dynamic partial-order reduction (StrategyDPOR, Flanagan & Godefroid)
// which visits one schedule per Mazurkiewicz trace: segments between gate
// points carry the lines they touched (machine.Access footprints), the
// driver computes happens-before between them, and only schedules that
// reverse an actual race are explored — sleep sets prune the rest.
// Strategies may additionally aim targeted spurious tag evictions
// (Thread.ForceTagEviction) at the scheduled core's held tags.
//
// A failing execution is reported as a Counterexample carrying the full
// decision sequence and the machine trace of the interleaving; Replay
// re-executes a decision sequence against a fresh Setup.
package schedexplore

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/machine"
)

// Mode selects the exploration strategy.
type Mode int

const (
	// RandomWalk picks uniformly among runnable cores at every decision.
	RandomWalk Mode = iota
	// PCT runs probabilistic concurrency testing: random per-core
	// priorities, the highest-priority runnable core always runs, and
	// PCTDepth-1 random decision points demote the running core.
	PCT
	// Exhaustive enumerates every schedule depth-first by replaying choice
	// prefixes. Only feasible for small worker counts and short bodies;
	// bound it with Executions and MaxDecisions.
	Exhaustive
	// StrategyDPOR is Exhaustive with dynamic partial-order reduction: it
	// enumerates one schedule per Mazurkiewicz trace (equivalence class of
	// schedules under commuting adjacent independent segments), using the
	// segment footprints recorded by the machine backend to detect races
	// and persistent/sleep sets to prune provably redundant schedules. At
	// equal coverage (Result.ClassHashes) it needs far fewer executions
	// than Exhaustive. Deterministic and seed-independent; EvictPerMil is
	// ignored.
	StrategyDPOR
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case RandomWalk:
		return "random"
	case PCT:
		return "pct"
	case Exhaustive:
		return "exhaustive"
	case StrategyDPOR:
		return "dpor"
	}
	return "unknown"
}

// Config tunes one exploration.
type Config struct {
	// Mode selects the strategy (default RandomWalk).
	Mode Mode
	// Seed derives every decision; equal seeds (with an equal Setup)
	// reproduce traces and histories bit for bit.
	Seed int64
	// Executions bounds the number of schedules tried. 0 means 16 for
	// RandomWalk/PCT and 10000 for Exhaustive and StrategyDPOR (which
	// also stop on their own once the schedule space is exhausted).
	Executions int
	// MaxDecisions bounds one execution's scheduling decisions; an
	// execution that exceeds it (a livelock-bound schedule) is released to
	// run freely and counted in Result.Truncated. Default 200000.
	MaxDecisions int
	// WindowCycles is the scheduling quantum: a granted core runs until it
	// is WindowCycles of simulated time ahead of the grant before parking
	// again. 0 parks at every scheduling point (finest interleaving).
	WindowCycles uint64
	// OpBoundaryOnly restricts scheduling to operation boundaries,
	// reproducing the granularity of the op-level fuzzer. Used by tests to
	// prove the intra-operation points reach strictly more interleavings.
	OpBoundaryOnly bool
	// EvictPerMil is the per-decision probability (per mille) that the
	// strategy forces a spurious eviction of one of the scheduled core's
	// held tags. Ignored in Exhaustive and StrategyDPOR modes.
	EvictPerMil int
	// PCTDepth is PCT's d parameter (number of priority segments);
	// default 3.
	PCTDepth int
	// PCTLength is PCT's schedule-length estimate, from which the
	// priority-change points are drawn; default 512.
	PCTLength int
	// TraceLimit bounds the machine-trace tail retained per execution for
	// counterexamples; default 2048 events.
	TraceLimit int
}

// Setup is one explorable workload instance over a fresh machine.
// Exploration re-executes from scratch, so Explore takes a Setup factory;
// the factory must build machine, structure and any prefill
// deterministically (it runs before the gate is installed).
//
// Body must perform all shared-memory effects through gated operations on
// th (every machine memory/tag op gates); in particular it must not
// allocate shared state before its first memory operation, or the
// pre-barrier concurrent phase could perturb determinism.
type Setup struct {
	Machine *machine.Machine
	Workers int
	Body    func(w int, th core.Thread)
	// Check, when non-nil, runs after all workers finish; a non-nil error
	// fails the execution and produces a Counterexample.
	Check func() error
}

// Choice is one scheduling decision: which of the runnable cores ran,
// whether one of its tags was force-evicted first, and — filled in once
// the granted core reaches its next scheduling point — the shared lines
// the granted segment touched.
type Choice struct {
	Runnable []int // sorted runnable core ids at this decision
	Pick     int   // index into Runnable of the granted core
	EvictTag int   // tag index force-evicted on the granted core, or -1
	// Point is the kind of scheduling point the granted core was parked
	// at (operation boundary or intra-operation window).
	Point machine.GatePoint
	// Accesses is the footprint of the segment the granted core executed
	// after this decision, recorded by the machine backend and drained at
	// the core's next scheduling point. It drives DPOR's independence
	// relation and lets counterexamples name the contended lines.
	Accesses []machine.Access
}

// Core returns the granted core's id.
func (ch *Choice) Core() int { return ch.Runnable[ch.Pick] }

// Counterexample is a failing execution: the decision sequence that
// reaches it and the machine trace of the interleaving.
type Counterexample struct {
	Execution int
	Seed      int64
	Choices   []Choice
	Err       error
	// Trace is the tail of the machine trace (TraceLimit events);
	// TraceDropped counts earlier events that no longer fit.
	Trace        []core.Event
	TraceDropped int
}

// String renders the counterexample: error, decision sequence, trace.
func (cx *Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execution %d (seed %d): %v\n", cx.Execution, cx.Seed, cx.Err)
	fmt.Fprintf(&b, "schedule (%d decisions):\n", len(cx.Choices))
	for i, ch := range cx.Choices {
		point := "op"
		if ch.Point == machine.GateInternal {
			point = "in"
		}
		fmt.Fprintf(&b, "  [%4d] core %d of %v @%s", i, ch.Core(), ch.Runnable, point)
		if ch.EvictTag >= 0 {
			fmt.Fprintf(&b, " (evict tag %d)", ch.EvictTag)
		}
		if len(ch.Accesses) > 0 {
			b.WriteString("  ")
			b.WriteString(FormatAccesses(ch.Accesses))
		}
		b.WriteByte('\n')
	}
	b.WriteString("machine trace")
	if cx.TraceDropped > 0 {
		fmt.Fprintf(&b, " (last %d events, %d dropped)", len(cx.Trace), cx.TraceDropped)
	}
	b.WriteString(":\n")
	b.WriteString(FormatTrace(cx.Trace))
	return b.String()
}

// FormatTrace renders machine events one per line.
func FormatTrace(events []core.Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString("  ")
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Result summarizes one exploration.
type Result struct {
	Executions int
	Decisions  int
	Truncated  int // executions released after exceeding MaxDecisions
	// SleepBlocked counts executions StrategyDPOR abandoned early because
	// every runnable core was in the sleep set — schedules proven
	// equivalent to one already explored. They are included in Executions
	// (they did run, released un-gated) but contribute no class hash.
	SleepBlocked int
	// Exhausted reports that Exhaustive or StrategyDPOR enumerated the
	// entire schedule space (for DPOR: one schedule per Mazurkiewicz
	// trace) within the bounds, with no truncated executions.
	Exhausted bool
	// TraceHashes holds one order-sensitive digest of the full machine
	// trace per execution; equal seeds yield equal digests.
	TraceHashes []uint64
	// ClassHashes holds one Mazurkiewicz-trace-class digest (Foata normal
	// form over the segment footprints) per completed execution —
	// truncated and sleep-blocked executions are skipped. Two schedules
	// that differ only by commuting adjacent independent segments hash
	// equal, so the number of distinct values measures interleaving-class
	// coverage comparably across modes.
	ClassHashes []uint64
	// Failure is the first failing execution, or nil.
	Failure *Counterexample
}

// Classes returns the number of distinct interleaving classes covered.
func (r *Result) Classes() int {
	seen := make(map[uint64]struct{}, len(r.ClassHashes))
	for _, h := range r.ClassHashes {
		seen[h] = struct{}{}
	}
	return len(seen)
}

func (cfg *Config) withDefaults() Config {
	c := *cfg
	if c.Executions == 0 {
		if c.Mode == Exhaustive || c.Mode == StrategyDPOR {
			c.Executions = 10000
		} else {
			c.Executions = 16
		}
	}
	if c.MaxDecisions == 0 {
		c.MaxDecisions = 200000
	}
	if c.PCTDepth == 0 {
		c.PCTDepth = 3
	}
	if c.PCTLength == 0 {
		c.PCTLength = 512
	}
	if c.TraceLimit == 0 {
		c.TraceLimit = 2048
	}
	return c
}

// Explore runs up to cfg.Executions schedules of fresh Setup instances and
// reports the first failure, if any.
func Explore(newSetup func() Setup, cfg Config) Result {
	c := cfg.withDefaults()
	var res Result
	prefix := []int{}
	var drv *dporDriver
	if c.Mode == StrategyDPOR {
		drv = newDPORDriver()
	}
	for exec := 0; exec < c.Executions; exec++ {
		var strat strategy
		execSeed := c.Seed + int64(exec)*1_000_003 + 1
		switch c.Mode {
		case PCT:
			strat = newPCTStrat(rand.New(rand.NewSource(execSeed)), c)
		case Exhaustive:
			strat = &exhaustStrat{prefix: prefix}
		case StrategyDPOR:
			strat = drv.newExec()
		default:
			strat = &randomStrat{rng: rand.New(rand.NewSource(execSeed)), evictPerMil: c.EvictPerMil}
		}
		rec := runOne(newSetup(), strat, c)
		res.Executions++
		res.Decisions += len(rec.choices)
		res.TraceHashes = append(res.TraceHashes, rec.traceHash)
		if rec.truncated {
			res.Truncated++
		}
		if rec.sleepBlocked {
			res.SleepBlocked++
		}
		if !rec.truncated && !rec.sleepBlocked {
			res.ClassHashes = append(res.ClassHashes, classHash(rec.choices))
		}
		if rec.err != nil {
			res.Failure = &Counterexample{
				Execution:    exec,
				Seed:         c.Seed,
				Choices:      rec.choices,
				Err:          rec.err,
				Trace:        rec.trace,
				TraceDropped: rec.traceDropped,
			}
			return res
		}
		switch c.Mode {
		case Exhaustive:
			es := strat.(*exhaustStrat)
			prefix = nextPrefix(es.choices, es.counts)
			if prefix == nil {
				res.Exhausted = true
				return res
			}
		case StrategyDPOR:
			if drv.finish(strat.(*dporExec), rec.truncated) {
				res.Exhausted = res.Truncated == 0
				return res
			}
		}
	}
	return res
}

// Replay re-executes a recorded decision sequence (e.g. a counterexample's
// Choices) against a fresh Setup and returns the resulting trace and check
// error.
func Replay(newSetup func() Setup, choices []Choice, cfg Config) ([]core.Event, error) {
	c := cfg.withDefaults()
	rec := runOne(newSetup(), &replayStrat{choices: choices}, c)
	return rec.trace, rec.err
}

// strategy decides, at decision number d over the sorted runnable core
// set, which core to grant (an index into runnable) and whether to first
// force-evict one of its tags (a tag index, or -1). A pick of -1 abandons
// the execution as proven redundant (DPOR sleep-set block): the remaining
// cores are released to run un-gated.
type strategy interface {
	pick(d int, runnable []int, tagCount func(coreID int) int) (pick, evictTag int)
}

// segmentObserver is implemented by strategies that consume segment
// footprints. observe(d, fp) delivers the accesses of the segment granted
// at decision d; it is called before the next pick (the granted core has
// reached its next scheduling point, or finished, by then).
type segmentObserver interface {
	observe(d int, fp []machine.Access)
}

type randomStrat struct {
	rng         *rand.Rand
	evictPerMil int
}

func (s *randomStrat) pick(_ int, runnable []int, tagCount func(int) int) (int, int) {
	i := s.rng.Intn(len(runnable))
	return i, maybeEvict(s.rng, s.evictPerMil, runnable[i], tagCount)
}

type pctStrat struct {
	rng         *rand.Rand
	evictPerMil int
	prio        map[int]int
	nextLow     int
	change      map[int]bool
}

func newPCTStrat(rng *rand.Rand, c Config) *pctStrat {
	p := &pctStrat{rng: rng, evictPerMil: c.EvictPerMil, prio: map[int]int{}, nextLow: -1, change: map[int]bool{}}
	for i := 0; i < c.PCTDepth-1; i++ {
		p.change[rng.Intn(c.PCTLength)] = true
	}
	return p
}

func (p *pctStrat) best(runnable []int) int {
	for _, w := range runnable {
		if _, ok := p.prio[w]; !ok {
			// Lazily assign a random initial priority above all demotions.
			p.prio[w] = p.rng.Intn(1 << 20)
		}
	}
	bestIdx := 0
	for i, w := range runnable {
		if p.prio[w] > p.prio[runnable[bestIdx]] {
			bestIdx = i
		}
	}
	return bestIdx
}

func (p *pctStrat) pick(d int, runnable []int, tagCount func(int) int) (int, int) {
	bestIdx := p.best(runnable)
	if p.change[d] {
		p.prio[runnable[bestIdx]] = p.nextLow
		p.nextLow--
		bestIdx = p.best(runnable)
	}
	return bestIdx, maybeEvict(p.rng, p.evictPerMil, runnable[bestIdx], tagCount)
}

type exhaustStrat struct {
	prefix  []int
	counts  []int
	choices []int
}

func (s *exhaustStrat) pick(d int, runnable []int, _ func(int) int) (int, int) {
	c := 0
	if d < len(s.prefix) {
		c = s.prefix[d]
	}
	if c >= len(runnable) {
		c = len(runnable) - 1
	}
	s.counts = append(s.counts, len(runnable))
	s.choices = append(s.choices, c)
	return c, -1
}

// nextPrefix backtracks depth-first: the deepest decision with an
// unexplored alternative is advanced; nil means the space is exhausted.
func nextPrefix(choices, counts []int) []int {
	for i := len(choices) - 1; i >= 0; i-- {
		if choices[i]+1 < counts[i] {
			np := append([]int{}, choices[:i]...)
			return append(np, choices[i]+1)
		}
	}
	return nil
}

type replayStrat struct{ choices []Choice }

func (s *replayStrat) pick(d int, runnable []int, _ func(int) int) (int, int) {
	if d >= len(s.choices) {
		return 0, -1
	}
	ch := s.choices[d]
	p := ch.Pick
	if p >= len(runnable) {
		p = len(runnable) - 1
	}
	return p, ch.EvictTag
}

func maybeEvict(rng *rand.Rand, perMil, coreID int, tagCount func(int) int) int {
	if perMil <= 0 || rng.Intn(1000) >= perMil {
		return -1
	}
	n := tagCount(coreID)
	if n == 0 {
		return -1
	}
	return rng.Intn(n)
}

// arrival is one worker reaching a scheduling point (or finishing).
type arrival struct {
	core   int
	cycles uint64
	point  machine.GatePoint
	done   bool
}

// controller is the machine.Gate that serializes the simulated cores: a
// worker reaching a scheduling point outside its granted window parks
// until the decision loop grants it. All cross-goroutine state is
// synchronized through the arrive/grant channels, so controller-side
// actions on a parked core's thread (targeted evictions, tag counts)
// happen-before the core resumes.
type controller struct {
	window   uint64
	opOnly   bool
	free     atomic.Bool // releases all gating (execution abort)
	arrive   chan arrival
	grant    []chan struct{}
	grantEnd []uint64 // written by the decision loop before granting
}

// Step implements machine.Gate.
func (c *controller) Step(coreID int, point machine.GatePoint, cycles uint64) {
	if c.free.Load() {
		return
	}
	if c.opOnly && point != machine.GateOp {
		return
	}
	if cycles < c.grantEnd[coreID] {
		return // still inside the granted window
	}
	c.arrive <- arrival{core: coreID, cycles: cycles, point: point}
	<-c.grant[coreID]
}

type execRecord struct {
	choices      []Choice
	err          error
	truncated    bool
	sleepBlocked bool
	traceHash    uint64
	trace        []core.Event
	traceDropped int
}

func runOne(s Setup, strat strategy, cfg Config) (rec execRecord) {
	m := s.Machine
	if s.Workers < 1 || s.Workers > m.NumThreads() {
		panic(fmt.Sprintf("schedexplore: %d workers over a %d-core machine", s.Workers, m.NumThreads()))
	}
	tr := newTraceCollector(cfg.TraceLimit)
	m.SetTracer(tr)
	c := &controller{
		window:   cfg.WindowCycles,
		opOnly:   cfg.OpBoundaryOnly,
		arrive:   make(chan arrival),
		grant:    make([]chan struct{}, s.Workers),
		grantEnd: make([]uint64, s.Workers),
	}
	for i := range c.grant {
		c.grant[i] = make(chan struct{})
	}
	m.SetGate(c)

	var wg sync.WaitGroup
	for w := 0; w < s.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := m.Thread(w).(*machine.Thread)
			th.SetActive(true)
			// Park before Body runs a single statement: code between gate
			// points (history recording, RNG draws) is then serialized from
			// the very start, which is what makes recorded histories — not
			// just machine traces — a pure function of the seed.
			c.Step(w, machine.GateOp, 0)
			s.Body(w, th)
			th.SetActive(false)
			c.arrive <- arrival{core: w, done: true}
		}(w)
	}

	// drain attributes the segment a core just finished executing to the
	// decision that granted it (safe: the arrive-channel receive orders
	// the core's segment log writes before this read). Pre-barrier
	// segments (no decision yet) hold no accesses and are discarded.
	lastDecision := make([]int, s.Workers)
	for i := range lastDecision {
		lastDecision[i] = -1
	}
	obs, _ := strat.(segmentObserver)
	drain := func(coreID int) {
		th := m.Thread(coreID).(*machine.Thread)
		d := lastDecision[coreID]
		if d < 0 {
			th.TakeSegmentAccesses(nil)
			return
		}
		rec.choices[d].Accesses = th.TakeSegmentAccesses(rec.choices[d].Accesses)
		if obs != nil {
			obs.observe(d, rec.choices[d].Accesses)
		}
	}

	// Initial barrier: every worker parks at its first scheduling point or
	// finishes outright. From here on exactly one worker runs at a time.
	parked := make(map[int]arrival, s.Workers)
	live := s.Workers
	collect := func() {
		for len(parked) < live {
			a := <-c.arrive
			drain(a.core)
			if a.done {
				live--
			} else {
				parked[a.core] = a
			}
		}
	}
	collect()

	// release lets every core run un-gated to completion: used for
	// livelock-bound schedules (truncation) and for DPOR sleep-set blocks
	// (the rest of the execution is proven redundant).
	release := func() {
		c.free.Store(true)
		for w := range parked {
			c.grant[w] <- struct{}{}
		}
		parked = map[int]arrival{}
		for live > 0 {
			a := <-c.arrive
			if a.done {
				live--
			} else {
				c.grant[a.core] <- struct{}{}
			}
		}
	}

	tagCount := func(coreID int) int { return m.Thread(coreID).(*machine.Thread).TagCount() }
	for live > 0 {
		if len(rec.choices) >= cfg.MaxDecisions {
			// Livelock-bound schedule: release every core and let the
			// workload drain un-gated (the structures are correct under
			// real concurrency, so it terminates).
			rec.truncated = true
			release()
			break
		}
		runnable := make([]int, 0, len(parked))
		for w := range parked {
			runnable = append(runnable, w)
		}
		sort.Ints(runnable)
		pick, evict := strat.pick(len(rec.choices), runnable, tagCount)
		if pick < 0 {
			rec.sleepBlocked = true
			release()
			break
		}
		w := runnable[pick]
		a := parked[w]
		delete(parked, w)
		if evict >= 0 {
			mt := m.Thread(w).(*machine.Thread)
			if evict < mt.TagCount() {
				mt.ForceTagEviction(mt.TaggedLine(evict))
			} else {
				evict = -1
			}
		}
		rec.choices = append(rec.choices, Choice{Runnable: runnable, Pick: pick, EvictTag: evict, Point: a.point})
		lastDecision[w] = len(rec.choices) - 1
		c.grantEnd[w] = a.cycles + c.window
		c.grant[w] <- struct{}{}
		// Only w runs now; collect its next point (or its exit).
		a2 := <-c.arrive
		drain(a2.core)
		if a2.done {
			live--
		} else {
			parked[a2.core] = a2
		}
	}
	wg.Wait()
	m.SetGate(nil)
	m.SetTracer(nil)
	rec.traceHash, rec.trace, rec.traceDropped = tr.snapshot()
	if s.Check != nil {
		rec.err = s.Check()
	}
	return rec
}

// traceCollector keeps an order-sensitive digest of the whole trace plus a
// bounded tail for counterexamples.
type traceCollector struct {
	mu    sync.Mutex
	hash  uint64
	total int
	limit int
	ring  []core.Event
	next  int
}

func newTraceCollector(limit int) *traceCollector {
	return &traceCollector{hash: 14695981039346656037, limit: limit}
}

// Trace implements core.Tracer.
func (c *traceCollector) Trace(e core.Event) {
	c.mu.Lock()
	h := c.hash
	for _, v := range [5]uint64{uint64(e.Kind), uint64(int64(e.Core)), uint64(int64(e.Target)), e.Line, e.Cycle} {
		h = (h ^ v) * 1099511628211
	}
	c.hash = h
	c.total++
	if len(c.ring) < c.limit {
		c.ring = append(c.ring, e)
	} else {
		c.ring[c.next] = e
		c.next = (c.next + 1) % c.limit
	}
	c.mu.Unlock()
}

func (c *traceCollector) snapshot() (hash uint64, tail []core.Event, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tail = append(tail, c.ring[c.next:]...)
	tail = append(tail, c.ring[:c.next]...)
	return c.hash, tail, c.total - len(tail)
}
