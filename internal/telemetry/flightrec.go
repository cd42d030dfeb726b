package telemetry

// FlightRecorder is the always-on black box for the served path: a
// lock-free per-core ring of the most recent request spans (tail-sampled
// ones marked), readable by any goroutine at any time. Workers publish
// every finished span; a post-mortem dump (SLO breach, checked-mode reclaim
// violation, SIGQUIT) snapshots the rings into a trace without stopping
// traffic.
//
// Spans are packed into fixed-width seqRing records (layout: DESIGN.md,
// "Telemetry core"), so a reader never sees a torn span. Publication is
// allocation-free (the serve allocs tests pin the whole span-record +
// flight-tick path at 0 allocs/op), and so is a Snapshot into a buffer
// with room for every retained span.
//
// Each core additionally exposes its most recent *tail-sampled* span as an
// exemplar (request/trace ID + latency), which the Prometheus exposition
// attaches to the matching latency bucket — the link that lets a scrape's
// p99 outlier be joined to its span in the dump.
type FlightRecorder struct {
	cores []flightCore
}

// flightSlotWords is the packed span size: a fixed header plus two words
// per recorded attempt. Attempt durations are clipped to 2^56-1 ns (~2.3
// years), leaving the top byte for the cause and overflow flag.
const (
	flightSlotWords = 9 + 2*spanMaxAttempts
	attemptDurMask  = uint64(1)<<56 - 1
)

type flightCore struct {
	ring seqRing // recent spans; ring.head counts spans recorded
	ex   seqRing // depth 1: the latest tail-sampled span's {ID, latency}; ex.head counts spans kept

	_ [64]byte // keep adjacent cores' hot atomics off one line
}

// NewFlightRecorder creates a recorder for n cores retaining depth spans
// per core (depth < 2 is raised to 2).
func NewFlightRecorder(n, depth int) *FlightRecorder {
	if depth < 2 {
		depth = 2
	}
	f := &FlightRecorder{cores: make([]flightCore, n)}
	for i := range f.cores {
		f.cores[i].ring = newSeqRing(depth, flightSlotWords)
		f.cores[i].ex = newSeqRing(1, 2)
	}
	return f
}

// NumCores returns the number of per-core rings.
func (f *FlightRecorder) NumCores() int { return len(f.cores) }

// Record publishes sp into core i's ring. It must only be called by core
// i's owning goroutine (or under the lock serializing that core's
// requests). Allocation-free.
func (f *FlightRecorder) Record(i int, sp *Span) {
	c := &f.cores[i]
	w := c.ring.begin()
	w[0].Store(sp.ID)
	w[1].Store(sp.Start)
	w[2].Store(sp.End)
	w[3].Store(sp.Decode)
	w[4].Store(sp.Queue)
	w[5].Store(sp.Tick)
	flags := uint64(sp.Op) | uint64(b2u(sp.Err))<<8 | uint64(sp.Kept)<<16 | uint64(uint32(sp.Worker))<<32
	w[6].Store(flags)
	w[7].Store(uint64(sp.Fails) | uint64(sp.Overflows)<<32)
	w[8].Store(uint64(sp.NAttempts))
	n := int(sp.NAttempts)
	if n > spanMaxAttempts {
		n = spanMaxAttempts
	}
	for j := 0; j < n; j++ {
		a := &sp.Attempts[j]
		dur := a.End - a.Start
		if a.End < a.Start {
			dur = 0
		}
		if dur > attemptDurMask {
			dur = attemptDurMask
		}
		packed := dur | uint64(a.Cause)<<56 | uint64(b2u(a.Overflow))<<58
		w[9+2*j].Store(a.Start)
		w[10+2*j].Store(packed)
	}
	c.ring.commit()
	if sp.Kept != 0 {
		e := c.ex.begin()
		e[0].Store(sp.ID)
		e[1].Store(sp.Latency())
		c.ex.commit()
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// unpackSpan is Record's inverse over a consistent copy of a span record.
func unpackSpan(w *[flightSlotWords]uint64) Span {
	sp := Span{
		ID: w[0], Start: w[1], End: w[2], Decode: w[3], Queue: w[4], Tick: w[5],
		Op: uint8(w[6]), Err: w[6]>>8&1 != 0, Kept: uint8(w[6] >> 16),
		Worker: int32(uint32(w[6] >> 32)),
		Fails:  uint32(w[7]), Overflows: uint32(w[7] >> 32),
		NAttempts: uint32(w[8]),
	}
	n := int(sp.NAttempts)
	if n > spanMaxAttempts {
		n = spanMaxAttempts
	}
	for j := 0; j < n; j++ {
		packed := w[10+2*j]
		sp.Attempts[j] = AttemptRec{
			Start:    w[9+2*j],
			End:      w[9+2*j] + packed&attemptDurMask,
			Cause:    uint8(packed >> 56 & 3),
			Overflow: packed>>58&1 != 0,
		}
	}
	return sp
}

// Snapshot appends every core's retained spans to dst, oldest first per
// core, cores concatenated in order, and returns the extended slice. Safe
// from any goroutine mid-run; torn slots past the retry budget are
// skipped, so every returned span is internally consistent. It allocates
// only when dst lacks room: the dump path passes nil, a polling reader
// reuses its buffer.
func (f *FlightRecorder) Snapshot(dst []Span) []Span {
	var w [flightSlotWords]uint64
	for i := range f.cores {
		c := &f.cores[i]
		for r, hi := c.ring.span(); r < hi; r++ {
			if ok, _ := c.ring.read(r, w[:]); ok {
				dst = append(dst, unpackSpan(&w))
			}
		}
	}
	return dst
}

// Exemplar returns core i's most recent tail-sampled span's request ID and
// latency, and whether the core has one. Safe at any time.
func (f *FlightRecorder) Exemplar(i int) (id, latencyNS uint64, ok bool) {
	ex := &f.cores[i].ex
	_, kept := ex.span()
	if kept == 0 {
		return 0, 0, false
	}
	var w [2]uint64
	if ok, _ = ex.read(kept-1, w[:]); !ok {
		return 0, 0, false
	}
	return w[0], w[1], true
}

// Totals returns the cumulative spans recorded and tail-sampled across all
// cores; both are monotonic. Safe at any time.
func (f *FlightRecorder) Totals() (recorded, kept uint64) {
	for i := range f.cores {
		recorded += f.cores[i].ring.head.Load()
		kept += f.cores[i].ex.head.Load()
	}
	return recorded, kept
}
