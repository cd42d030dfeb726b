package telemetry

// Core is one simulated core's telemetry: a set of histograms owned by the
// goroutine driving that core, written on the backend's own hot path
// (occupancy, streaks) and by the workload driver (per-op latency and
// retries). Like machine.CoreStats, plain fields are single-writer; merge
// at quiescence.
type Core struct {
	// OpLatency is per structure-operation latency: simulated cycles on
	// the machine backend, memory/tag-operation ticks on the vtags
	// emulation (which has no cost model — work per op is its analogue).
	OpLatency Histogram
	// OpRetries is validation/commit failures per structure operation — a
	// direct read on how many optimistic attempts each op burned.
	OpRetries Histogram
	// TagOccupancy is the tag-set size observed after each successful
	// AddTag line insertion, i.e. the distribution of how much of the
	// MaxTags budget traversals actually hold.
	TagOccupancy Histogram
	// ValidateStreak / VASStreak / IASStreak are the lengths of maximal
	// runs of consecutive failures of each primitive. A streak is observed
	// when it ends (a success after >= 1 failures) or at Flush; the sum of
	// each histogram therefore equals the backend's failure counter, an
	// invariant the accounting tests pin.
	ValidateStreak Histogram
	VASStreak      Histogram
	IASStreak      Histogram
	// RetireToFree is the reclamation pipeline's latency: backend clock
	// units (machine cycles / vtags ticks) between an object's retire and
	// the scan pass that freed it, observed on the retiring thread.
	RetireToFree Histogram

	valRun, vasRun, iasRun uint64 // open (unobserved) failure streaks
}

// NoteValidate records a Validate outcome, maintaining the failure streak.
func (c *Core) NoteValidate(ok bool) { noteStreak(&c.ValidateStreak, &c.valRun, ok) }

// NoteVAS records a VAS outcome.
func (c *Core) NoteVAS(ok bool) { noteStreak(&c.VASStreak, &c.vasRun, ok) }

// NoteIAS records an IAS outcome.
func (c *Core) NoteIAS(ok bool) { noteStreak(&c.IASStreak, &c.iasRun, ok) }

// noteStreak folds one outcome into a failure-streak histogram: failures
// extend the open run one at a time, successes close it, and a closed run is
// recorded as one observation of its length. With this encoding every
// individual failure contributes exactly 1 to the histogram's sum, so
// sum(streaks) == backend failure counter.
func noteStreak(h *Histogram, run *uint64, ok bool) {
	if !ok {
		*run++
		return
	}
	if *run > 0 {
		h.Observe(*run)
		*run = 0
	}
}

// NoteTagOccupancy records the tag-set size after a successful tag insert.
func (c *Core) NoteTagOccupancy(n int) { c.TagOccupancy.Observe(uint64(n)) }

// NoteRetireToFree records one reclaimed object's retire-to-free latency
// in backend clock units.
func (c *Core) NoteRetireToFree(d uint64) { c.RetireToFree.Observe(d) }

// Flush closes any open failure streaks so that histogram sums match the
// backend failure counters. Call once, at quiescence, before reading.
func (c *Core) Flush() {
	if c.valRun > 0 {
		c.ValidateStreak.Observe(c.valRun)
		c.valRun = 0
	}
	if c.vasRun > 0 {
		c.VASStreak.Observe(c.vasRun)
		c.vasRun = 0
	}
	if c.iasRun > 0 {
		c.IASStreak.Observe(c.iasRun)
		c.iasRun = 0
	}
}

// Merge folds o's histograms into c (open streaks are not transferred;
// Flush o first).
func (c *Core) Merge(o *Core) {
	c.OpLatency.Merge(&o.OpLatency)
	c.OpRetries.Merge(&o.OpRetries)
	c.TagOccupancy.Merge(&o.TagOccupancy)
	c.ValidateStreak.Merge(&o.ValidateStreak)
	c.VASStreak.Merge(&o.VASStreak)
	c.IASStreak.Merge(&o.IASStreak)
	c.RetireToFree.Merge(&o.RetireToFree)
}

// Set is a fixed family of per-core telemetry structs, one per simulated
// core, sized at construction so the recording path never allocates.
type Set struct {
	cores []Core
}

// NewSet creates telemetry for n cores.
func NewSet(n int) *Set { return &Set{cores: make([]Core, n)} }

// Attacher is anything that records into a Set once told to — both memory
// backends (thread i writes Core(i)) and reclaim.Pool. nil detaches. Only
// call while quiescent.
type Attacher interface{ SetTelemetry(s *Set) }

// NumCores returns the number of per-core structs.
func (s *Set) NumCores() int { return len(s.cores) }

// Core returns core i's telemetry. The returned struct must only be
// written by the goroutine driving core i.
func (s *Set) Core(i int) *Core { return &s.cores[i] }

// Flush closes open streaks on every core. Only call at quiescence.
func (s *Set) Flush() {
	for i := range s.cores {
		s.cores[i].Flush()
	}
}

// Merge returns the aggregate over all cores. Only call at quiescence
// (Flush first to fold open streaks in).
func (s *Set) Merge() *Core {
	var agg Core
	for i := range s.cores {
		agg.Merge(&s.cores[i])
	}
	return &agg
}
