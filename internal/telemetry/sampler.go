package telemetry

// Sampler is the time-resolved view: it splits a run into fixed-width
// windows of the backend clock (simulated cycles on the machine backend,
// memory-op ticks on vtags) and accumulates per-window deltas — ops
// completed and validation/commit failures — so a sweep cell reports a
// time series exposing warmup, contention collapse and elision-mode flips
// instead of one flat average.
//
// Recording follows the same single-writer discipline as Core: each
// simulated core ticks only its own window array (preallocated at
// construction, so the per-op path never allocates) and the arrays are
// merged at quiescence. When a run outlives the per-core window budget the
// core's interval doubles and its windows fold pairwise, so long runs
// degrade to coarser windows instead of dropping data; Windows() folds
// every core to the coarsest interval before summing.
type Sampler struct {
	every uint64 // requested (finest) interval
	maxW  int
	cores []coreSampler
}

// WindowDelta is one core's accumulation for one window.
type WindowDelta struct {
	Ops   uint64
	Fails uint64
}

type coreSampler struct {
	base      uint64 // clock at enrolment: window 0 starts here
	interval  uint64
	lastFails uint64
	windows   []WindowDelta // len grows to the highest touched index; cap fixed
}

// Window is one merged window of the run, in backend clock units since the
// earliest enrolment.
type Window struct {
	// Start/End are the window bounds in clock units relative to the
	// sampled phase's start (core enrolment).
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Ops is the number of structure operations completed in the window.
	Ops uint64 `json:"ops"`
	// Fails is the number of validation/commit failures in the window — a
	// spike here with flat Ops is contention collapse.
	Fails uint64 `json:"fails"`
}

// NewSampler creates a sampler for n cores with the given clock interval
// per window and per-core window budget (folding doubles the interval when
// a run exceeds it). every must be > 0; maxWindows >= 2.
func NewSampler(n int, every uint64, maxWindows int) *Sampler {
	if every == 0 {
		panic("telemetry: sampler interval must be > 0")
	}
	if maxWindows < 2 {
		maxWindows = 2
	}
	s := &Sampler{every: every, maxW: maxWindows, cores: make([]coreSampler, n)}
	for i := range s.cores {
		s.cores[i] = coreSampler{
			interval: every,
			windows:  make([]WindowDelta, 0, maxWindows),
		}
	}
	return s
}

// Enroll marks the start of core i's sampled phase: the current clock
// becomes its window-0 origin and the failure counter baseline.
func (s *Sampler) Enroll(i int, clock, fails uint64) {
	c := &s.cores[i]
	c.base = clock
	c.lastFails = fails
	c.windows = c.windows[:0]
	c.interval = s.every
}

// Tick records one completed operation for core i at the given clock, with
// the core's cumulative failure counter. Allocation-free: the window array
// was preallocated and only its length advances.
func (s *Sampler) Tick(i int, clock, fails uint64) {
	c := &s.cores[i]
	if clock < c.base {
		clock = c.base // clock regressions cannot happen; be safe anyway
	}
	idx := int((clock - c.base) / c.interval)
	for idx >= s.maxW {
		c.fold()
		idx = int((clock - c.base) / c.interval)
	}
	for len(c.windows) <= idx {
		// Extend into the preallocated capacity, zeroing the slot: a fold
		// may have truncated the slice over stale deltas.
		c.windows = append(c.windows[:len(c.windows):cap(c.windows)], WindowDelta{})
	}
	w := &c.windows[idx]
	w.Ops++
	w.Fails += fails - c.lastFails
	c.lastFails = fails
}

// fold halves the core's resolution: pairs of windows combine and the
// interval doubles, freeing half the budget for the run's continuation.
func (c *coreSampler) fold() {
	n := (len(c.windows) + 1) / 2
	for i := 0; i < n; i++ {
		w := c.windows[2*i]
		if 2*i+1 < len(c.windows) {
			w.Ops += c.windows[2*i+1].Ops
			w.Fails += c.windows[2*i+1].Fails
		}
		c.windows[i] = w
	}
	c.windows = c.windows[:n]
	c.interval *= 2
}

// Windows merges the per-core arrays into one run-level time series. Every
// core is folded to the coarsest interval any core reached, so window i of
// the result covers the same clock span on every core. Only call at
// quiescence.
func (s *Sampler) Windows() []Window {
	coarsest := s.every
	for i := range s.cores {
		if s.cores[i].interval > coarsest {
			coarsest = s.cores[i].interval
		}
	}
	var out []Window
	for i := range s.cores {
		c := &s.cores[i]
		for c.interval < coarsest && len(c.windows) > 0 {
			c.fold()
		}
		for wi, w := range c.windows {
			for len(out) <= wi {
				out = append(out, Window{
					Start: uint64(len(out)) * coarsest,
					End:   uint64(len(out)+1) * coarsest,
				})
			}
			out[wi].Ops += w.Ops
			out[wi].Fails += w.Fails
		}
	}
	return out
}
