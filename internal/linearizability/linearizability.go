// Package linearizability decides whether a recorded concurrent operation
// history (internal/history) is linearizable with respect to a sequential
// model — the correctness bar every tagged structure in this repository
// must clear, including under spurious tag evictions and fallback-path
// transitions — and whether a transactional history is strictly
// serializable, which is the same question asked of a word-addressed map.
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
// linearizable prefix it found and the window of concurrent operations
// none of which can be linearized next, each with the state it meets.
package linearizability

import (
	"errors"
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

// maxIters bounds the search per partition; beyond it the result is
// reported as inconclusive rather than hanging a test run.
const maxIters = 200_000_000

// Outcome is a check's verdict.
type Outcome struct {
	// OK reports that every partition is linearizable.
	OK bool
	// Inconclusive reports that some partition exhausted the iteration
	// budget before a verdict (counts as not-OK but is distinguished so
	// harnesses can fail loudly instead of claiming a violation).
	Inconclusive bool
	// Ops and Partitions describe the checked history (for a transactional
	// history, Ops counts the committed transactions).
	Ops, Partitions int

	// Failure details (valid when !OK).
	Key    uint64          // partition key of the offending subhistory
	Best   []history.Event // longest linearizable prefix, in linearization order
	Window []history.Event // concurrent candidates at the stuck frontier

	report string // the rendered counterexample or inconclusive verdict
}

// Explain renders a human-readable counterexample (empty when OK).
func (o *Outcome) Explain() string { return o.report }

// Err returns nil when the history passed, and otherwise an error whose
// message is the counterexample, or says the verdict is inconclusive.
func (o *Outcome) Err() error {
	if o.OK {
		return nil
	}
	return errors.New(o.Explain())
}

// CheckSet checks a per-key ordered-set history (the common case for the
// intset harnesses) by partitioning on Key and running the set model on
// each subhistory.
func CheckSet(events []history.Event) Outcome {
	return CheckPartitioned(SetModel(), events)
}

// CheckPartitioned partitions events by Key and checks each subhistory
// independently against the model. Sound whenever operations on distinct
// keys commute in the real object (true for sets and maps).
func CheckPartitioned(m Model, events []history.Event) Outcome {
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
		what := fmt.Sprintf("linearizable (model %s, partition key %d)", m.Name, k)
		out := search(&modelState{m: &m, cur: m.Init}, parts[k], what, maxIters)
		if !out.OK {
			out.Key = k
			out.Ops = len(events)
			out.Partitions = len(parts)
			return out
		}
	}
	return Outcome{OK: true, Ops: len(events), Partitions: len(parts)}
}

// Check checks the whole history as one partition (for register/counter
// models whose operations do not commute across keys).
func Check(m Model, events []history.Event) Outcome {
	out := search(&modelState{m: &m, cur: m.Init}, events, "linearizable (model "+m.Name+")", maxIters)
	out.Ops = len(events)
	out.Partitions = 1
	return out
}

// state is the sequential object the search walks: it steps forward one
// operation at a time and rewinds in last-in, first-out order.
type state interface {
	// step applies e when e's recorded output is legal in the current
	// state, and reports whether it did.
	step(e *history.Event) bool
	// undo reverts the latest step that applied.
	undo()
	// key names the current state for the memo: equal states give equal
	// keys, whichever order of steps reached them.
	key() uint64
	// format renders e for a counterexample. A stuck candidate also shows
	// the current state it cannot step from.
	format(e *history.Event, stuck bool) string
}

// modelState adapts a one-word Model to the search: a stack of prior
// words gives undo, and the word is its own memo key.
type modelState struct {
	m    *Model
	cur  uint64
	prev []uint64
}

func (s *modelState) step(e *history.Event) bool {
	next, ok := s.m.Step(s.cur, e)
	if !ok && !e.Pending() { // a pending op's output is unconstrained
		return false
	}
	s.prev = append(s.prev, s.cur)
	s.cur = next
	return true
}

func (s *modelState) undo() {
	s.cur = s.prev[len(s.prev)-1]
	s.prev = s.prev[:len(s.prev)-1]
}

func (s *modelState) key() uint64 { return s.cur }

func (s *modelState) format(e *history.Event, stuck bool) string {
	var line string
	if s.m.Format != nil {
		line = s.m.Format(e)
	} else {
		line = fmt.Sprintf("w%d op%d(key=%d,arg=%d)=(%v,%d) [%d,%d]",
			e.Worker, e.Op, e.Key, e.Arg, e.OK, e.Out, e.Inv, e.Ret)
	}
	if stuck {
		line += fmt.Sprintf("\n      in state %d", s.cur)
	}
	return line
}

// entry is one call or return point in the doubly-linked real-time order.
// Both points of an operation carry its id; each call's matching return
// (nil for pending operations) is reachable via match.
type entry struct {
	ev         *history.Event
	id         int
	match      *entry
	time       uint64
	kind       uint8 // 0 = call, 1 = return
	prev, next *entry
}

// search runs the cached Wing-Gong search over events from st's current
// state, giving up after budget iterations. what names the property
// checked, for reports. A search that finds a violation has undone every
// step, so st is back where it started.
func search(st state, events []history.Event, what string, budget uint64) Outcome {
	n := len(events)
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
			points = append(points, entry{ev: &evs[i], id: i, time: evs[i].Ret, kind: 1})
		}
	}
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].time != points[j].time {
			return points[i].time < points[j].time
		}
		return points[i].kind < points[j].kind
	})
	// Link matches (a call sorts before its return) and the list, with a
	// sentinel head.
	calls := make([]*entry, n)
	head := &entry{}
	prev := head
	for i := range points {
		p := &points[i]
		if p.kind == 0 {
			calls[p.id] = p
		} else {
			p.match, calls[p.id].match = calls[p.id], p
		}
		prev.next, p.prev = p, prev
		prev = p
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

	var (
		stack      []*entry
		linearized = newBitset(n)
		cache      = map[uint64][]cacheEntry{}
		iters      uint64
		bestLen    = -1
		best       []history.Event
		bestWindow []history.Event
	)
	snapshotBest := func() {
		bestLen = len(stack)
		best = best[:0]
		for _, call := range stack {
			best = append(best, *call.ev)
		}
		bestWindow = bestWindow[:0]
		for e := head.next; e != nil; e = e.next {
			if e.kind == 1 {
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
		if iters > budget {
			return Outcome{Inconclusive: true, report: fmt.Sprintf(
				"check inconclusive: search budget of %d iterations exhausted before deciding whether the history is %s", budget, what)}
		}
		if cur == nil {
			// Scanned the whole remaining list without meeting a return:
			// every completed operation is linearized (leftovers are
			// pending calls, which may legally never take effect).
			return Outcome{OK: true}
		}
		if cur.kind == 0 {
			if st.step(cur.ev) {
				linearized.set(uint64(cur.id))
				if cacheAdd(cache, linearized, st.key()) {
					stack = append(stack, cur)
					lift(cur)
					if len(stack) > bestLen {
						snapshotBest()
					}
					cur = head.next
					continue
				}
				linearized.clear(uint64(cur.id))
				st.undo()
			}
			cur = cur.next
			continue
		}
		// Hit a return: nothing before it could be linearized. Backtrack.
		if len(stack) == 0 {
			return Outcome{Best: best, Window: bestWindow, report: counterexample(st, what, best, bestWindow)}
		}
		call := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.undo()
		linearized.clear(uint64(call.id))
		unlift(call)
		cur = call.next
	}
}

// counterexample renders a failed search. It replays best on st, so each
// stuck candidate in window is shown against the state best reaches.
func counterexample(st state, what string, best, window []history.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "history NOT %s\n", what)
	fmt.Fprintf(&b, "longest legal prefix (%d ops):\n", len(best))
	start := max(0, len(best)-12)
	if start > 0 {
		fmt.Fprintf(&b, "  ... %d earlier ops elided ...\n", start)
	}
	for i := range best {
		st.step(&best[i])
		if i >= start {
			fmt.Fprintf(&b, "  %3d. %s\n", i+1, st.format(&best[i], false))
		}
	}
	fmt.Fprintf(&b, "no continuation explains any of the %d concurrent candidate(s):\n", len(window))
	for i := range window {
		fmt.Fprintf(&b, "   -> %s\n", st.format(&window[i], true))
	}
	return b.String()
}

// bitset is a fixed-size bit vector identifying a set of linearized ops.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i uint64)   { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i uint64) { b[i/64] &^= 1 << (i % 64) }

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
