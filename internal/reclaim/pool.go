package reclaim

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Policy selects how a Pool decides that a retired object is free-safe.
type Policy int

const (
	// PolicyImmediate frees a retired object once every operation in
	// flight at retire time has exited and no thread announces a tag on
	// its lines. Retire also performs a tag-invalidating write so doomed
	// tags fail fast.
	PolicyImmediate Policy = iota
	// PolicyEpoch is the epoch-based-reclamation baseline: the domain era
	// only advances when all in-flight operations have observed it, and an
	// object is freed two advances after its retire.
	PolicyEpoch
)

func (p Policy) String() string {
	if p == PolicyEpoch {
		return "epoch"
	}
	return "immediate"
}

// privCap is the per-thread free cache size (objects); overflow spills to
// the shared list under a mutex.
const privCap = 64

// Pool is a free-list allocator for one object class (fixed word count) of
// one structure: Alloc hands out recycled or fresh line-aligned objects,
// Retire feeds unlinked objects into the retire -> scan -> free pipeline
// governed by the pool's Policy. All per-thread state is owned by the
// thread's driving goroutine; only the spill list takes a lock, and no
// path performs host allocation in steady state (the pending ring and
// spill list grow amortized on first use only).
type Pool struct {
	d           *Domain
	words       int
	linesPerObj int
	policy      Policy

	pt []poolThread

	mu    sync.Mutex
	spill []core.Addr

	// Testing-only seeded faults for the DPOR use-after-free corpus: the
	// exact discipline bugs the explorer must convict.
	//
	// FaultFreeEarly frees at retire without waiting for quiescence
	// (free-before-quiescent). FaultSkipTagCheck drops the announced-tag
	// condition from the scan (tag-check skipped on recycled line).
	FaultFreeEarly    bool
	FaultSkipTagCheck bool

	tel *telemetry.Set

	retired      atomic.Uint64
	freed        atomic.Uint64
	freshAllocs  atomic.Uint64
	reusedAllocs atomic.Uint64
	freeObjs     atomic.Int64
	inUseLines   atomic.Int64
	highWater    atomic.Int64
}

type poolThread struct {
	priv    []core.Addr // LIFO free cache, cap privCap
	pending []pendingEntry
	head    int

	_ [5]uint64 // keep neighbouring threads' state off one host cache line
}

type pendingEntry struct {
	addr  core.Addr
	stamp uint64
	clock uint64
}

// NewPool creates a pool over mem-allocated objects of the given size in
// words, attached to d's reader registry.
func NewPool(d *Domain, words int, policy Policy) *Pool {
	if words <= 0 {
		panic("reclaim: pool object size must be positive")
	}
	p := &Pool{
		d:           d,
		words:       words,
		linesPerObj: (words*core.WordSize + core.LineSize - 1) / core.LineSize,
		policy:      policy,
	}
	p.pt = make([]poolThread, len(d.handles))
	for i := range p.pt {
		p.pt[i].priv = make([]core.Addr, 0, privCap)
		p.pt[i].pending = make([]pendingEntry, 0, 256)
	}
	return p
}

// Domain returns the reader registry this pool scans.
func (p *Pool) Domain() *Domain { return p.d }

// Policy returns the pool's reclamation policy.
func (p *Pool) Policy() Policy { return p.policy }

// SetTelemetry attaches per-core telemetry (retire-to-free latency lands in
// the retiring thread's Core). Only call while quiescent.
func (p *Pool) SetTelemetry(s *telemetry.Set) { p.tel = s }

// Enter brackets the start of a structure operation on th (delegates to
// the domain handle; nesting-safe).
func (p *Pool) Enter(th core.Thread) { p.d.Handle(th.ID()).Enter() }

// Exit closes the bracket opened by Enter.
func (p *Pool) Exit(th core.Thread) { p.d.Handle(th.ID()).Exit() }

// Alloc returns a line-aligned object of the pool's size: a recycled one
// when the pipeline has produced free objects, otherwise fresh from the
// backing space. Recycled objects still hold their previous (type-stable)
// contents; callers must initialise every word they later read.
func (p *Pool) Alloc(th core.Thread) core.Addr {
	pt := &p.pt[th.ID()]
	a, ok := p.take(th, pt)
	if !ok {
		// Last resort before growing the footprint: try to flush our own
		// pipeline, then take what it freed.
		p.scan(th, pt)
		a, ok = p.take(th, pt)
	}
	if ok {
		p.reusedAllocs.Add(1)
	} else {
		a = th.Alloc(p.words)
		p.freshAllocs.Add(1)
	}
	if p.d.checked {
		p.eachLine(a, func(l core.Line) { p.d.setLineState(l, lineFree, lineLive, "alloc") })
	}
	p.noteLive()
	return a
}

// noteLive accounts one more live object and updates the footprint
// high-water mark.
func (p *Pool) noteLive() {
	in := p.inUseLines.Add(int64(p.linesPerObj))
	for {
		hw := p.highWater.Load()
		if in <= hw || p.highWater.CompareAndSwap(hw, in) {
			break
		}
	}
}

// Adopt registers an object of the pool's class that was allocated outside
// it (a structure's initial nodes, built before the pool was wired) so it
// may later be retired into the pipeline like any pool allocation. Only
// call while quiescent.
func (p *Pool) Adopt(a core.Addr) {
	if p.d.checked {
		p.eachLine(a, func(l core.Line) { p.d.setLineState(l, 0, lineLive, "adopt") })
	}
	p.noteLive()
}

// take pops a free object from the thread cache, refilling from the shared
// spill list when empty.
func (p *Pool) take(th core.Thread, pt *poolThread) (core.Addr, bool) {
	if n := len(pt.priv); n > 0 {
		a := pt.priv[n-1]
		pt.priv = pt.priv[:n-1]
		p.freeObjs.Add(-1)
		return a, true
	}
	p.mu.Lock()
	n := len(p.spill)
	if n == 0 {
		p.mu.Unlock()
		return core.NilAddr, false
	}
	grab := privCap / 2
	if grab > n-1 {
		grab = n - 1
	}
	a := p.spill[n-1]
	pt.priv = append(pt.priv, p.spill[n-1-grab:n-1]...)
	p.spill = p.spill[:n-1-grab]
	p.mu.Unlock()
	p.freeObjs.Add(-1)
	return a, true
}

// Retire feeds an unlinked object into the pipeline. The caller must be
// the unique unlinker (the thread whose swing detached the object) and
// must have dropped its own tags on the object first. Under
// PolicyImmediate the retire write-invalidates the object's lines so any
// remote tag still covering them can never validate again.
func (p *Pool) Retire(th core.Thread, a core.Addr) {
	if p.d.checked {
		p.eachLine(a, func(l core.Line) { p.d.setLineState(l, lineLive, lineRetired, "retire") })
	}
	p.retired.Add(1)
	var stamp uint64
	if p.policy == PolicyImmediate {
		// Doom every outstanding tag on the object: a same-value store
		// bumps the version (vtags) / steals exclusivity (machine), so a
		// reader that tagged the object before it was unlinked fails its
		// next validation instead of trusting recycled bytes.
		for i := 0; i < p.linesPerObj; i++ {
			la := a + core.Addr(i*core.LineSize)
			th.Store(la, th.Load(la))
		}
		stamp = p.d.era.Add(1)
	} else {
		stamp = p.d.era.Load()
	}
	pt := &p.pt[th.ID()]
	clock, _ := opClock(th)
	if p.FaultFreeEarly {
		// Seeded bug: skip the pipeline and free instantly.
		p.free(th, pt, pendingEntry{addr: a, stamp: stamp, clock: clock})
		return
	}
	pt.pending = append(pt.pending, pendingEntry{addr: a, stamp: stamp, clock: clock})
	p.scan(th, pt)
}

// FreePrivate returns an object that was never published (e.g. a
// speculative allocation whose linking CAS failed, or an aborted
// transaction's fresh node) straight to the free list: no reader can hold
// a reference, so no pipeline pass is needed.
func (p *Pool) FreePrivate(th core.Thread, a core.Addr) {
	if p.d.checked {
		p.eachLine(a, func(l core.Line) { p.d.setLineState(l, lineLive, lineFree, "private free") })
	}
	p.inUseLines.Add(int64(-p.linesPerObj))
	p.put(&p.pt[th.ID()], a)
}

// Scan runs one pipeline pass over the calling thread's pending retires,
// freeing every object the policy proves safe. Structures need not call
// this — Retire scans automatically — but drains and tests do. It reports
// whether the thread's pending ring is empty afterwards.
func (p *Pool) Scan(th core.Thread) bool {
	pt := &p.pt[th.ID()]
	p.scan(th, pt)
	return pt.head == len(pt.pending)
}

// scan frees the eligible prefix of the thread's pending FIFO. Stamps are
// monotone within a thread, so the era condition fails at a prefix
// boundary; an announced tag also stops the pass (conservatively FIFO:
// announcements are transient, held at most for the announcing op).
func (p *Pool) scan(th core.Thread, pt *poolThread) {
	if pt.head == len(pt.pending) {
		return
	}
	var limit uint64
	if p.policy == PolicyImmediate {
		limit = p.d.minReservation()
	} else {
		e := p.d.tryAdvanceEpoch()
		if e < 2 {
			return
		}
		limit = e - 1 // frees stamps <= e-2, i.e. two advances old
	}
	for pt.head < len(pt.pending) {
		e := pt.pending[pt.head]
		if p.policy == PolicyImmediate {
			// An op whose reservation equals the stamp entered after the
			// retire's era bump — after the unlink — so only reservations
			// strictly below the stamp can still reach the object.
			if e.stamp > limit {
				break
			}
			if !p.FaultSkipTagCheck && p.objAnnounced(e.addr) {
				break
			}
		} else if e.stamp >= limit {
			break
		}
		p.free(th, pt, e)
		pt.head++
	}
	// Compact in place so the ring never grows past its high-water mark.
	if pt.head == len(pt.pending) {
		pt.pending = pt.pending[:0]
		pt.head = 0
	} else if pt.head > cap(pt.pending)/2 {
		n := copy(pt.pending, pt.pending[pt.head:])
		pt.pending = pt.pending[:n]
		pt.head = 0
	}
}

// tryAdvanceEpoch advances the era if every in-flight operation has
// observed the current one, returning the (possibly new) era.
func (d *Domain) tryAdvanceEpoch() uint64 {
	e := d.era.Load()
	for i := range d.handles {
		if r := d.handles[i].res.Load(); r != idle && r != e {
			return e
		}
	}
	d.era.CompareAndSwap(e, e+1)
	return d.era.Load()
}

// objAnnounced reports whether any thread announces a tag on any of the
// object's lines.
func (p *Pool) objAnnounced(a core.Addr) bool {
	for i := 0; i < p.linesPerObj; i++ {
		if p.d.announced((a + core.Addr(i*core.LineSize)).Line()) {
			return true
		}
	}
	return false
}

// free moves a proven-safe object onto the free list and records the
// retire-to-free latency in backend clock units.
func (p *Pool) free(th core.Thread, pt *poolThread, e pendingEntry) {
	if p.d.checked {
		p.eachLine(e.addr, func(l core.Line) { p.d.setLineState(l, lineRetired, lineFree, "free") })
	}
	p.freed.Add(1)
	p.inUseLines.Add(int64(-p.linesPerObj))
	p.put(pt, e.addr)
	if p.tel != nil {
		clock, _ := opClock(th)
		p.tel.Core(th.ID()).NoteRetireToFree(clock - e.clock)
	}
}

// put places a free object in the thread cache or the shared spill list.
func (p *Pool) put(pt *poolThread, a core.Addr) {
	if len(pt.priv) < cap(pt.priv) {
		pt.priv = append(pt.priv, a)
	} else {
		p.mu.Lock()
		p.spill = append(p.spill, a)
		p.mu.Unlock()
	}
	p.freeObjs.Add(1)
}

func (p *Pool) eachLine(a core.Addr, f func(core.Line)) {
	for i := 0; i < p.linesPerObj; i++ {
		f((a + core.Addr(i*core.LineSize)).Line())
	}
}

// opClock reads the backend's per-thread clock (simulated cycles on the
// machine backend, ticks on vtags); zero if the thread has none.
func opClock(th core.Thread) (uint64, uint64) {
	if oc, ok := th.(core.OpClocked); ok {
		return oc.OpClock()
	}
	return 0, 0
}

// Stats is a point-in-time snapshot of the pool's counters. Only exact at
// quiescence.
type Stats struct {
	// Retired/Freed count objects through the pipeline; FreshAllocs and
	// ReusedAllocs split Alloc by source.
	Retired, Freed, FreshAllocs, ReusedAllocs uint64
	// InUseLines is the current live+retired-but-unfreed footprint in
	// lines; HighWaterLines its maximum over the pool's lifetime;
	// FreeLines the current free-list occupancy; PendingObjs the objects
	// still waiting in per-thread pipelines.
	InUseLines, HighWaterLines, FreeLines int64
	PendingObjs                           int
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		Retired:        p.retired.Load(),
		Freed:          p.freed.Load(),
		FreshAllocs:    p.freshAllocs.Load(),
		ReusedAllocs:   p.reusedAllocs.Load(),
		InUseLines:     p.inUseLines.Load(),
		HighWaterLines: p.highWater.Load(),
		FreeLines:      p.freeObjs.Load() * int64(p.linesPerObj),
	}
	for i := range p.pt {
		s.PendingObjs += len(p.pt[i].pending) - p.pt[i].head
	}
	return s
}
