// Package reclaim adds safe memory reclamation to the simulated address
// space: a free-list allocator over mem lines with a retire -> scan -> free
// pipeline, in two policies behind one interface.
//
// The paper's tag primitive is itself a reclamation primitive. Following
// "Efficient Hardware Primitives for Immediate Memory Reclamation in
// Optimistic Data Structures" (Singh, Brown, Spear; arXiv 2302.12958), a
// retired node is safe to recycle the moment no reader's tag set can still
// validate it: the retiring write invalidates every remote tag on the
// line, so any optimistic traversal still holding one fails its next
// validation and restarts instead of acting on recycled bytes.
//
//   - PolicyImmediate frees a retired line as soon as (a) every operation
//     that was in flight at retire time has completed — an op that starts
//     later cannot reach the unlinked node — and (b) no thread still
//     announces a tag on the line (the tag condition; conservative, since
//     the retire-time invalidation already doomed those tags). Condition
//     (a) is tracked per retire, not per global epoch, so the free lags
//     only the specific overlapping operations.
//   - PolicyEpoch is the classic epoch-based baseline: a global epoch
//     advances only once every in-flight operation has observed it, and a
//     retired line is freed two epochs later. Same interface, coarser
//     batching — the differential comparison point.
//
// Recycled lines are type-stable: a Pool serves one object class of one
// structure, so a stale reader that touches a recycled line before its
// failed validation always sees a plausible object, never a wild pointer
// (the simulated analogue of SLAB_TYPESAFE_BY_RCU). Re-tagging a recycled
// line is ABA-free on both backends — vtags versions only grow, and any
// machine write evicts remote tags.
package reclaim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// idle is the reservation value of a thread with no operation in flight.
const idle = ^uint64(0)

// Domain is the reader registry one memory's pools share: per-thread
// operation reservations (which era the running op entered at) and tag
// announcements (which lines the backend currently has tagged), plus the
// debug guard's per-line state machine. Create one Domain per Memory and
// attach it to the backend with SetReclaim so tag operations announce.
type Domain struct {
	maxTags int
	// era is the reclamation clock. PolicyImmediate bumps it on every
	// retire; PolicyEpoch advances it collectively (see pool.go).
	era     atomic.Uint64
	handles []Handle

	// checked enables the use-after-free guard: per-line allocation states
	// with violation detection on retire/free/alloc/validate. Defaults to
	// on under the memtagcheck build tag. Flip only while quiescent.
	checked bool
	// onViolation receives guard violations; the default panics (debug
	// builds want a hard stop), tests install a recorder.
	onViolation func(error)

	mu        sync.Mutex
	lineState map[core.Line]lineState
	violation error
}

type lineState uint8

const (
	lineLive lineState = iota + 1
	lineRetired
	lineFree
)

// NewDomain creates a domain for a memory with the given thread count and
// per-thread tag budget (core.Memory's NumThreads and MaxTags).
func NewDomain(threads, maxTags int) *Domain {
	d := &Domain{maxTags: maxTags, onViolation: defaultViolation, checked: core.Checked}
	d.era.Store(1)
	d.handles = make([]Handle, threads)
	for i := range d.handles {
		h := &d.handles[i]
		h.d = d
		h.id = i
		h.res.Store(idle)
		h.ann = make([]atomic.Uint64, maxTags)
	}
	return d
}

// NewDomainFor is NewDomain sized from the memory itself.
func NewDomainFor(mem core.Memory) *Domain { return NewDomain(mem.NumThreads(), mem.MaxTags()) }

// Attacher is a memory backend whose threads mirror their tag sets into a
// Domain's handles (thread i into Handle(i)) once told to; nil detaches.
// Only call while quiescent.
type Attacher interface{ SetReclaim(d *Domain) }

// Handle returns thread id's registry slot. All non-atomic methods on the
// returned Handle must be called from the goroutine driving that thread.
func (d *Domain) Handle(id int) *Handle {
	if id < 0 || id >= len(d.handles) {
		panic(fmt.Sprintf("reclaim: no handle for thread %d (%d threads)", id, len(d.handles)))
	}
	return &d.handles[id]
}

// NumThreads returns the number of registered handles.
func (d *Domain) NumThreads() int { return len(d.handles) }

// SetChecked turns the use-after-free guard on or off at runtime (tests);
// the memtagcheck build tag sets the default. Only call while quiescent.
func (d *Domain) SetChecked(on bool) { d.checked = on }

// OnViolation installs a guard-violation handler replacing the default
// panic; the first violation is also retained for Violation. Only call
// while quiescent.
func (d *Domain) OnViolation(f func(error)) { d.onViolation = f }

// Violation returns the first guard violation observed, or nil.
func (d *Domain) Violation() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.violation
}

func defaultViolation(err error) { panic(err) }

func (d *Domain) violate(format string, args ...any) {
	err := fmt.Errorf("reclaim: "+format, args...)
	d.mu.Lock()
	if d.violation == nil {
		d.violation = err
	}
	f := d.onViolation
	d.mu.Unlock()
	if f != nil {
		f(err)
	}
}

// setLineState transitions a line in the guard's state machine, reporting
// violations for illegal transitions. want==0 accepts any current state.
func (d *Domain) setLineState(l core.Line, want, next lineState, what string) {
	d.mu.Lock()
	if d.lineState == nil {
		d.lineState = make(map[core.Line]lineState)
	}
	cur := d.lineState[l]
	ok := want == 0 || cur == want || (cur == 0 && want == lineFree)
	d.lineState[l] = next
	d.mu.Unlock()
	if !ok {
		d.violate("%s of line %d in state %s (want %s)", what, l, cur, want)
	}
}

func (s lineState) String() string {
	switch s {
	case lineLive:
		return "live"
	case lineRetired:
		return "retired"
	case lineFree:
		return "free"
	}
	return "untracked"
}

// Handle is one thread's slot in the domain: its operation reservation and
// announced tag set. The backend updates announcements from the tag ops;
// structures bracket operations with Enter/Exit (usually via Pool).
type Handle struct {
	d  *Domain
	id int
	// res is the era the thread's current operation entered at, or idle.
	// Written by the owner, read by every scanning thread.
	res atomic.Uint64
	// depth supports nested Enter (an op helping another op's pool).
	depth int
	// ann holds the lines this thread's backend tag set currently covers,
	// encoded line+1 so zero means empty. Slots are only ever written by
	// the owner and are never compacted, so concurrent scans see a stable
	// (if conservative) view.
	ann []atomic.Uint64
	// annHigh bounds the owner's own sweeps: every slot at or above it is
	// empty. Owner-private — scanners still read all of ann.
	annHigh int
}

// Enter marks the start of a structure operation: the thread publishes the
// current era so scans know which retires it may have witnessed. Nested
// calls are counted and only the outermost publishes.
func (h *Handle) Enter() {
	h.depth++
	if h.depth == 1 {
		h.res.Store(h.d.era.Load())
	}
}

// Exit marks the end of the operation begun by the matching Enter.
func (h *Handle) Exit() {
	h.depth--
	if h.depth < 0 {
		panic("reclaim: Exit without Enter")
	}
	if h.depth == 0 {
		h.res.Store(idle)
	}
}

// Announce records that the owner thread tagged line l. Called by the
// backend from AddTag.
func (h *Handle) Announce(l core.Line) {
	for i := range h.ann[:h.annHigh] {
		if h.ann[i].Load() == 0 {
			h.ann[i].Store(uint64(l) + 1)
			return
		}
	}
	if h.annHigh == len(h.ann) {
		// The backend's tag set is bounded by maxTags, so a full table means
		// announcements leaked; fail loudly rather than silently dropping a
		// safety signal.
		panic("reclaim: tag announcement table full")
	}
	h.ann[h.annHigh].Store(uint64(l) + 1)
	h.annHigh++
}

// Retract drops the announcement for line l, if present. Called by the
// backend from RemoveTag.
func (h *Handle) Retract(l core.Line) {
	v := uint64(l) + 1
	for i := range h.ann[:h.annHigh] {
		if h.ann[i].Load() == v {
			h.ann[i].Store(0)
			return
		}
	}
}

// RetractAll drops every announcement. Called by the backend from
// ClearTagSet.
func (h *Handle) RetractAll() {
	for i := range h.ann[:h.annHigh] {
		if h.ann[i].Load() != 0 {
			h.ann[i].Store(0)
		}
	}
	h.annHigh = 0
}

// NoteValidated is the guard hook for a successful validation of the
// owner's whole tag set, which the announcement table mirrors: validating a
// tag on a line that sits on a free list is exactly the use-after-free the
// reclaimer must never allow (a reader acted on a recycled line and the
// tags did not save it). No-op unless checked, and small enough to inline,
// so an unguarded backend pays one branch.
func (h *Handle) NoteValidated() {
	if h.d.checked {
		h.noteValidated()
	}
}

func (h *Handle) noteValidated() {
	for i := range h.ann[:h.annHigh] {
		v := h.ann[i].Load()
		if v == 0 {
			continue
		}
		l := core.Line(v - 1)
		h.d.mu.Lock()
		st := h.d.lineState[l]
		h.d.mu.Unlock()
		if st == lineFree {
			h.d.violate("thread %d validated a tag on freed line %d", h.id, l)
		}
	}
}

// announced reports whether any thread currently announces a tag on l.
// Conservative: a concurrent Retract may still be observed as announced.
func (d *Domain) announced(l core.Line) bool {
	v := uint64(l) + 1
	for i := range d.handles {
		h := &d.handles[i]
		for j := range h.ann {
			if h.ann[j].Load() == v {
				return true
			}
		}
	}
	return false
}

// minReservation returns the smallest era any in-flight operation entered
// at (idle if none).
func (d *Domain) minReservation() uint64 {
	min := uint64(idle)
	for i := range d.handles {
		if r := d.handles[i].res.Load(); r < min {
			min = r
		}
	}
	return min
}
