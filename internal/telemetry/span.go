package telemetry

import (
	"io"
	"strconv"
	"time"
)

// Request-scoped tracing for the served path. A Span is one request's
// timeline — decode, queue (worker-mutex wait), the per-attempt STM run
// with abort causes, encode — stamped in host nanoseconds since the
// server's epoch and carrying the request ID assigned at accept time.
//
// Recording is alloc-free and always-on when armed: every request's span is
// built in a per-worker SpanRecorder (single-writer, like Core and the
// Stream's live window) and published into the FlightRecorder's per-core
// ring, the black box a post-mortem dump reads back. Tail-based sampling is
// the retention *marking*: a span that breached the latency threshold,
// exhausted its attempt budget, hit tag overflow, or errored gets a
// non-zero KeptMask, feeds the Prometheus exemplar for its worker, and is
// what the trace export highlights. Aggregates say *that* p99 spiked; the
// kept spans say *which* request, *which* retry loop, and — through the
// flow arrow into the backend core's track — *where* in the machine
// timeline to look.

// spanMaxAttempts bounds the per-span attempt records. A request that
// retries more than this keeps counting (NAttempts, Fails) but stops
// recording per-attempt timings — by then the span is tail-kept anyway
// (attempt-budget breach).
const spanMaxAttempts = 8

// Attempt causes: how one STM attempt of the request ended.
const (
	// AttemptCommit: the attempt committed.
	AttemptCommit = uint8(iota)
	// AttemptAbort: value-based validation failed (baseline NOrec conflict
	// detection, or the tagged fallback path).
	AttemptAbort
	// AttemptTagAbort: tag validation failed — a real conflict or a
	// spurious eviction invalidated a tagged read-set line.
	AttemptTagAbort
)

// KeptMask bits: why a span was tail-sampled.
const (
	// KeptLatency: end-to-end latency breached TailPolicy.LatencyNS.
	KeptLatency = uint8(1 << iota)
	// KeptRetries: the request burned TailPolicy.Attempts or more STM
	// attempts.
	KeptRetries
	// KeptOverflow: a tag-set overflow forced an attempt into value-based
	// mode.
	KeptOverflow
	// KeptError: the request answered with an error response.
	KeptError
)

// AttemptRec is one STM attempt's record inside a span.
type AttemptRec struct {
	Start, End uint64 // ns since epoch
	Cause      uint8  // AttemptCommit / AttemptAbort / AttemptTagAbort
	Overflow   bool   // the attempt dropped to value-based mode (tag overflow)
}

// Span is one request's record. All times are nanoseconds since the
// recorder's epoch (server start).
type Span struct {
	ID     uint64 // request id: conn id (assigned at accept) << 28 | per-conn seq
	Op     uint8  // wire op code (0 for a request that failed to parse)
	Worker int32
	Err    bool  // answered with an error response
	Kept   uint8 // KeptMask; 0 = recorded but not tail-sampled

	Start  uint64 // read complete (request fully received)
	End    uint64 // response encoded
	Decode uint64 // ParseRequest duration
	Queue  uint64 // worker-mutex wait (requests of other conns on this worker)
	Tick   uint64 // backend op-clock at execution start: the flow-arrow anchor

	Fails     uint32 // backend validation/commit failures burned
	Overflows uint32 // tag-set overflows hit
	NAttempts uint32 // STM attempts (may exceed len(Attempts))
	Attempts  [spanMaxAttempts]AttemptRec
}

// Latency returns the span's end-to-end latency.
func (sp *Span) Latency() uint64 { return sp.End - sp.Start }

// TailPolicy is the tail-based sampling decision: a finished span is marked
// kept when any armed criterion fires. Overflow and error always keep.
type TailPolicy struct {
	// LatencyNS keeps spans at least this slow (0 disables the criterion).
	LatencyNS uint64
	// Attempts keeps spans that burned at least this many STM attempts
	// (0 disables the criterion).
	Attempts uint32
}

// Classify returns the KeptMask for a finished span under this policy.
func (p TailPolicy) Classify(sp *Span) uint8 {
	var mask uint8
	if p.LatencyNS > 0 && sp.Latency() >= p.LatencyNS {
		mask |= KeptLatency
	}
	if p.Attempts > 0 && sp.NAttempts >= p.Attempts {
		mask |= KeptRetries
	}
	if sp.Overflows > 0 {
		mask |= KeptOverflow
	}
	if sp.Err {
		mask |= KeptError
	}
	return mask
}

// SpanRecorder builds one worker's request spans. It is single-writer: all
// methods must be called by the goroutine (or under the mutex) serializing
// that worker's requests. It implements the stm.TxObserver hook surface, so
// installing the recorder on a TM yields per-attempt records with causes.
// Recording is allocation-free; only construction allocates.
type SpanRecorder struct {
	epoch time.Time
	pol   TailPolicy
	fr    *FlightRecorder
	core  int

	cur     Span
	inReq   bool
	attOpen bool
}

// NewSpanRecorder creates the recorder for one worker/core. Finished spans
// are published into fr's ring for that core; epoch anchors the span clock
// (pass the server start time).
func NewSpanRecorder(fr *FlightRecorder, core int, epoch time.Time, pol TailPolicy) *SpanRecorder {
	return &SpanRecorder{epoch: epoch, pol: pol, fr: fr, core: core}
}

// now is the span clock: host nanoseconds since the epoch.
func (r *SpanRecorder) now() uint64 { return uint64(time.Since(r.epoch)) }

// Begin opens the span for one request. start is the read-complete stamp,
// decode/queue the phase durations already measured by the caller (decode
// happens outside the worker mutex), tick the backend op-clock at execution
// start.
func (r *SpanRecorder) Begin(id uint64, op uint8, start, decode, queue, tick uint64) {
	r.cur = Span{
		ID: id, Op: op, Worker: int32(r.core),
		Start: start, Decode: decode, Queue: queue, Tick: tick,
	}
	r.inReq = true
	r.attOpen = false
}

// TxAttemptStart marks one STM attempt beginning (stm.TxObserver hook).
func (r *SpanRecorder) TxAttemptStart() {
	if !r.inReq {
		return
	}
	if n := r.cur.NAttempts; n < spanMaxAttempts {
		r.cur.Attempts[n].Start = r.now()
	}
	r.attOpen = true
}

// TxAttemptEnd marks the attempt's outcome (stm.TxObserver hook).
func (r *SpanRecorder) TxAttemptEnd(committed, fromTags bool) {
	if !r.inReq || !r.attOpen {
		return
	}
	r.attOpen = false
	if n := r.cur.NAttempts; n < spanMaxAttempts {
		a := &r.cur.Attempts[n]
		a.End = r.now()
		switch {
		case committed:
			a.Cause = AttemptCommit
		case fromTags:
			a.Cause = AttemptTagAbort
		default:
			a.Cause = AttemptAbort
		}
	}
	r.cur.NAttempts++
	if !committed {
		r.cur.Fails++
	}
}

// TxTagOverflow marks a tag-set overflow inside the current attempt
// (stm.TxObserver hook): the attempt degraded to value-based validation.
func (r *SpanRecorder) TxTagOverflow() {
	if !r.inReq {
		return
	}
	r.cur.Overflows++
	if r.attOpen && r.cur.NAttempts < spanMaxAttempts {
		r.cur.Attempts[r.cur.NAttempts].Overflow = true
	}
}

// End closes the span at end (same clock as Begin's start), applies the
// tail policy, publishes the span into the flight recorder, and reports
// whether it was tail-sampled.
func (r *SpanRecorder) End(end uint64, errResp bool) (kept bool) {
	if !r.inReq {
		return false
	}
	r.inReq = false
	r.cur.End = end
	r.cur.Err = errResp
	r.cur.Kept = r.pol.Classify(&r.cur)
	if r.fr != nil {
		r.fr.Record(r.core, &r.cur)
	}
	return r.cur.Kept != 0
}

// Perfetto export of request spans. Request spans are async begin/end
// pairs (ph b/e, matched by cat+id — what bench/tracecheck pairs per
// request ID); phases and attempts are complete slices on the worker's
// track; and each span throws a flow arrow from its begin into the backend
// core's machine track at the span's op-clock anchor, so the request
// timeline and the PR 5 machine timeline interleave in one view.

// spanPid is the trace-event pid of the serve-domain tracks; machine-domain
// tracks keep tracePid, so the two time domains render as two processes.
const spanPid = 2

// WriteSpanTrace exports spans as Chrome trace-event JSON. opName renders a
// wire op code ("GET", "RESV", ...); workers is the serve worker count
// (names the tracks). Machine tracks for every worker's backend core are
// declared whether or not machine events are present, so flow arrows always
// resolve into a named track.
func WriteSpanTrace(w io.Writer, spans []Span, opName func(uint8) string, workers int) error {
	var evs []jsonEvent

	for i := 0; i < workers; i++ {
		evs = append(evs, threadName(spanPid, tidFor(i), "worker "+strconv.Itoa(i)), coreTrack(i))
	}

	attemptName := func(a *AttemptRec) string {
		name := "attempt/abort"
		switch a.Cause {
		case AttemptCommit:
			name = "attempt/commit"
		case AttemptTagAbort:
			name = "attempt/tagabort"
		}
		if a.Overflow {
			name += "+overflow"
		}
		return name
	}

	flowID := 0
	for i := range spans {
		sp := &spans[i]
		tid := tidFor(int(sp.Worker))
		id := int(sp.ID)
		args := map[string]any{
			"req_id": sp.ID, "kept": sp.Kept, "fails": sp.Fails,
			"overflows": sp.Overflows, "attempts": sp.NAttempts, "err": sp.Err,
		}
		name := "REQ/" + opName(sp.Op)
		evs = append(evs,
			jsonEvent{Name: name, Cat: "req", Ph: "b", Ts: sp.Start, Pid: spanPid, Tid: tid, ID: id, Args: args},
			jsonEvent{Name: name, Cat: "req", Ph: "e", Ts: sp.End, Pid: spanPid, Tid: tid, ID: id},
		)

		// Phase slices: decode, queue, each attempt, then encode (the gap
		// between the last attempt's end — or the run start for non-STM ops
		// — and the response being on the wire).
		cursor := sp.Start
		if sp.Decode > 0 {
			evs = append(evs, jsonEvent{Name: "decode", Cat: "phase", Ph: "X",
				Ts: cursor, Dur: sp.Decode, Pid: spanPid, Tid: tid})
		}
		cursor += sp.Decode
		if sp.Queue > 0 {
			evs = append(evs, jsonEvent{Name: "queue", Cat: "phase", Ph: "X",
				Ts: cursor, Dur: sp.Queue, Pid: spanPid, Tid: tid})
		}
		cursor += sp.Queue
		runEnd := cursor
		n := int(sp.NAttempts)
		if n > spanMaxAttempts {
			n = spanMaxAttempts
		}
		for j := 0; j < n; j++ {
			a := &sp.Attempts[j]
			end := a.End
			if end < a.Start {
				end = a.Start
			}
			evs = append(evs, jsonEvent{Name: attemptName(a), Cat: "phase", Ph: "X",
				Ts: a.Start, Dur: end - a.Start, Pid: spanPid, Tid: tid})
			if end > runEnd {
				runEnd = end
			}
		}
		if sp.End > runEnd {
			evs = append(evs, jsonEvent{Name: "encode", Cat: "phase", Ph: "X",
				Ts: runEnd, Dur: sp.End - runEnd, Pid: spanPid, Tid: tid})
		}

		// Flow arrow into the machine track: begin on the request span,
		// finish at the backend op-clock anchor on the worker's core track
		// (plus an instant there, so the arrow lands on a visible event).
		flowID++
		evs = append(evs,
			jsonEvent{Name: name, Cat: "req", Ph: "s", Ts: sp.Start, Pid: spanPid, Tid: tid, ID: flowID},
			jsonEvent{Name: name, Cat: "req", Ph: "f", BP: "e", Ts: sp.Tick, Pid: tracePid, Tid: tid, ID: flowID},
			jsonEvent{Name: "req-anchor", Cat: "req", Ph: "i", Ts: sp.Tick, Pid: tracePid, Tid: tid,
				Args: map[string]any{"req_id": sp.ID}},
		)
	}

	return writeTrace(w, evs)
}
