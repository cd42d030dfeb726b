// Package linearizability decides whether a recorded concurrent operation
// history (internal/history) is linearizable with respect to a sequential
// model — the correctness bar every tagged structure in this repository
// must clear, including under spurious tag evictions and fallback-path
// transitions.
//
// The checker is the Wing & Gong search in its iterative, cached form (as
// refined by Lowe and popularized by Porcupine): walk the history's
// call/return entries in real-time order, greedily linearize any operation
// whose call precedes the first pending return and whose output the model
// accepts, and backtrack when a return is reached with no extension. A
// memoization set over (linearized-operations, model-state) pairs prunes
// re-explored configurations, and set histories are partitioned per key —
// operations on different keys commute through the model, so each key is
// checked independently, which turns 8-thread × thousands-of-ops histories
// from intractable into milliseconds.
//
// On failure the checker reports a minimal counterexample: the longest
// linearizable prefix it found, the model state it reached, and the window
// of concurrent operations none of which can be linearized next.
package linearizability

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/history"
)

// Model is a sequential specification with a single uint64 state (rich
// enough for the structures here: set membership per key, a register
// value, a counter, or a few packed fields).
type Model struct {
	// Name labels the model in reports.
	Name string
	// Init is the initial state.
	Init uint64
	// Step applies one event to the state, returning the successor state
	// and whether the event's recorded output is what the model expects.
	// For events whose state transition depends on their output (e.g. a
	// CAS), Step must derive the transition from the recorded output.
	Step func(state uint64, e *history.Event) (uint64, bool)
	// Format renders one event for counterexamples (optional).
	Format func(e *history.Event) string
}

// format renders e with the model's formatter or a generic fallback.
func (m *Model) format(e *history.Event) string {
	if m.Format != nil {
		return m.Format(e)
	}
	return fmt.Sprintf("w%d op%d(key=%d,arg=%d)=(%v,%d) [%d,%d]",
		e.Worker, e.Op, e.Key, e.Arg, e.OK, e.Out, e.Inv, e.Ret)
}

// DefaultMaxIters bounds the search per partition; beyond it the result is
// reported as inconclusive rather than hanging a test run.
const DefaultMaxIters = 200_000_000

// Outcome is a check's verdict.
type Outcome struct {
	// OK reports that every partition is linearizable.
	OK bool
	// Inconclusive reports that some partition exhausted the iteration
	// budget before a verdict (counts as not-OK but is distinguished so
	// harnesses can fail loudly instead of claiming a violation).
	Inconclusive bool
	// Ops and Partitions describe the checked history.
	Ops, Partitions int

	// Failure details (valid when !OK).
	Key        uint64          // partition key of the offending subhistory
	Best       []history.Event // longest linearizable prefix, in linearization order
	FinalState uint64          // model state after Best
	Window     []history.Event // concurrent candidates at the stuck frontier
	model      *Model
}

// Explain renders a human-readable counterexample (empty when OK).
func (o *Outcome) Explain() string {
	if o.OK {
		return ""
	}
	if o.Inconclusive {
		return fmt.Sprintf("linearizability check inconclusive: iteration budget exhausted (key %d, %d ops)", o.Key, o.Ops)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "history NOT linearizable (model %s, partition key %d)\n", o.model.Name, o.Key)
	fmt.Fprintf(&b, "longest linearizable prefix (%d ops), ending in state %d:\n", len(o.Best), o.FinalState)
	start := 0
	if len(o.Best) > 12 {
		start = len(o.Best) - 12
		fmt.Fprintf(&b, "  ... %d earlier ops elided ...\n", start)
	}
	for i := start; i < len(o.Best); i++ {
		fmt.Fprintf(&b, "  %3d. %s\n", i+1, o.model.format(&o.Best[i]))
	}
	fmt.Fprintf(&b, "no continuation explains any of the %d concurrent candidate(s):\n", len(o.Window))
	for i := range o.Window {
		fmt.Fprintf(&b, "   -> %s\n", o.model.format(&o.Window[i]))
	}
	return b.String()
}

// Option tunes a check.
type Option func(*options)

type options struct{ maxIters uint64 }

// WithMaxIters overrides the per-partition search budget.
func WithMaxIters(n uint64) Option { return func(o *options) { o.maxIters = n } }

// CheckSet checks a per-key ordered-set history (the common case for the
// intset harnesses) by partitioning on Key and running the set model on
// each subhistory.
func CheckSet(events []history.Event, opts ...Option) Outcome {
	return CheckPartitioned(SetModel(), events, opts...)
}

// CheckPartitioned partitions events by Key and checks each subhistory
// independently against the model. Sound whenever operations on distinct
// keys commute in the real object (true for sets and maps).
func CheckPartitioned(m Model, events []history.Event, opts ...Option) Outcome {
	o := options{maxIters: DefaultMaxIters}
	for _, fn := range opts {
		fn(&o)
	}
	parts := map[uint64][]history.Event{}
	for _, e := range events {
		parts[e.Key] = append(parts[e.Key], e)
	}
	keys := make([]uint64, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		out := checkOne(&m, parts[k], o.maxIters)
		if !out.OK {
			out.Ops = len(events)
			out.Partitions = len(parts)
			return out
		}
	}
	return Outcome{OK: true, Ops: len(events), Partitions: len(parts)}
}

// Check checks the whole history as one partition (for register/counter
// models whose operations do not commute across keys).
func Check(m Model, events []history.Event, opts ...Option) Outcome {
	o := options{maxIters: DefaultMaxIters}
	for _, fn := range opts {
		fn(&o)
	}
	out := checkOne(&m, events, o.maxIters)
	out.Ops = len(events)
	out.Partitions = 1
	return out
}

// entry is one call or return point in the doubly-linked real-time order.
// Call entries carry id >= 0; each call's matching return (nil for pending
// operations) is reachable via match.
type entry struct {
	ev         *history.Event
	id         int // operation id for calls, -1 for returns
	match      *entry
	time       uint64
	kind       uint8 // 0 = call, 1 = return
	prev, next *entry
}

// checkOne runs the cached Wing-Gong search over one partition.
func checkOne(m *Model, events []history.Event, maxIters uint64) Outcome {
	n := len(events)
	if n == 0 {
		return Outcome{OK: true}
	}
	evs := make([]history.Event, n)
	copy(evs, events)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Inv < evs[j].Inv })

	// Build the call/return sequence sorted by timestamp; on equal
	// timestamps calls sort before returns, making the operations overlap
	// (the permissive reading of hand-crafted histories).
	points := make([]entry, 0, 2*n)
	for i := range evs {
		points = append(points, entry{ev: &evs[i], id: i, time: evs[i].Inv, kind: 0})
		if !evs[i].Pending() {
			points = append(points, entry{ev: &evs[i], id: -1, time: evs[i].Ret, kind: 1})
		}
	}
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].time != points[j].time {
			return points[i].time < points[j].time
		}
		return points[i].kind < points[j].kind
	})
	// Link matches and the list (with a sentinel head).
	callOf := make(map[*history.Event]*entry, n)
	for i := range points {
		if points[i].id >= 0 {
			callOf[points[i].ev] = &points[i]
		}
	}
	for i := range points {
		if points[i].id < 0 {
			c := callOf[points[i].ev]
			c.match = &points[i]
			points[i].match = c
		}
	}
	head := &entry{id: -2}
	prev := head
	for i := range points {
		prev.next = &points[i]
		points[i].prev = prev
		prev = &points[i]
	}

	lift := func(call *entry) {
		call.prev.next = call.next
		if call.next != nil {
			call.next.prev = call.prev
		}
		if r := call.match; r != nil {
			r.prev.next = r.next
			if r.next != nil {
				r.next.prev = r.prev
			}
		}
	}
	unlift := func(call *entry) {
		if r := call.match; r != nil {
			r.prev.next = r
			if r.next != nil {
				r.next.prev = r
			}
		}
		call.prev.next = call
		if call.next != nil {
			call.next.prev = call
		}
	}

	type frame struct {
		call      *entry
		prevState uint64
	}
	var (
		stack      []frame
		state      = m.Init
		linearized = newBitset(n)
		cache      = map[uint64][]cacheEntry{}
		iters      uint64
		bestLen    = -1
		best       []history.Event
		bestState  uint64
		bestWindow []history.Event
	)
	snapshotBest := func() {
		bestLen = len(stack)
		best = best[:0]
		for _, f := range stack {
			best = append(best, *f.call.ev)
		}
		bestState = state
		bestWindow = bestWindow[:0]
		for e := head.next; e != nil; e = e.next {
			if e.id < 0 {
				break // first return bounds the candidate window
			}
			bestWindow = append(bestWindow, *e.ev)
			if len(bestWindow) >= 16 {
				break
			}
		}
	}
	snapshotBest()

	cur := head.next
	for {
		iters++
		if iters > maxIters {
			return Outcome{Inconclusive: true, Key: evs[0].Key, model: m}
		}
		if cur == nil {
			// Scanned the whole remaining list without meeting a return:
			// every completed operation is linearized (leftovers are
			// pending calls, which may legally never take effect).
			return Outcome{OK: true}
		}
		if cur.id >= 0 {
			ns, outOK := m.Step(state, cur.ev)
			if cur.ev.Pending() {
				outOK = true // a pending op's output is unconstrained
			}
			if outOK {
				linearized.set(uint64(cur.id))
				if cacheAdd(cache, linearized, ns) {
					stack = append(stack, frame{call: cur, prevState: state})
					state = ns
					lift(cur)
					if len(stack) > bestLen {
						snapshotBest()
					}
					cur = head.next
					continue
				}
				linearized.clear(uint64(cur.id))
			}
			cur = cur.next
			continue
		}
		// Hit a return: nothing before it could be linearized. Backtrack.
		if len(stack) == 0 {
			return Outcome{
				Key:        evs[0].Key,
				Best:       append([]history.Event(nil), best...),
				FinalState: bestState,
				Window:     append([]history.Event(nil), bestWindow...),
				model:      m,
			}
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		state = f.prevState
		linearized.clear(uint64(f.call.id))
		unlift(f.call)
		cur = f.call.next
	}
}

// bitset is a fixed-size bit vector identifying a set of linearized ops.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i uint64)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i uint64)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) get(i uint64) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) hashWith(state uint64) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	for _, w := range b {
		mix(w)
	}
	mix(state)
	return h
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

type cacheEntry struct {
	bits  bitset
	state uint64
}

// cacheAdd records (b, state), reporting true if it was not seen before.
func cacheAdd(cache map[uint64][]cacheEntry, b bitset, state uint64) bool {
	h := b.hashWith(state)
	for _, ce := range cache[h] {
		if ce.state == state && ce.bits.equal(b) {
			return false
		}
	}
	cache[h] = append(cache[h], cacheEntry{bits: append(bitset(nil), b...), state: state})
	return true
}
