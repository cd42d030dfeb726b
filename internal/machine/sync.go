package machine

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Lax clock synchronization, after Graphite: worker threads that run ahead
// of the slowest active core by more than SyncWindowCycles park (in host
// time) until it catches up. This keeps the interleaving density of
// simulated cores proportional to simulated time rather than to host
// parallelism, so contention effects scale with the simulated core count
// even when the host has fewer CPUs.
//
// Ahead-threads park on a condition variable instead of spin-yielding:
// with dozens of simulated cores multiplexed onto few host CPUs, spinning
// waiters would steal exactly the host cycles the laggard needs (an
// O(cores²) tax). Two structures keep the host cost of the discipline low:
//
//   - The active-set minimum is cached: a shared lower bound
//     (clockSync.gmin) that every core reads lock-free on its fast path.
//     A core only rescans published clocks when its own clock runs past
//     gmin+window, and that O(cores) rescan refreshes the bound for all
//     cores.
//   - The wakeup path is sharded per core: each thread parks on its own
//     condition variable, and a progressing thread signals only the cores
//     whose parked flag is set, under that core's private mutex. Distinct
//     waiter/waker pairs never serialize on a shared lock, and a machine-wide
//     parked count makes the common nobody-is-parked broadcast a single
//     atomic load rather than an O(cores) flag scan.
//
// Only *active* threads participate: a thread must call SetActive(true)
// before issuing measured work and SetActive(false) after (the workload
// harness does this). Inactive threads neither stall nor hold others back.

// GatePoint classifies a scheduling point reported to a Gate.
type GatePoint int

const (
	// GateOp is the boundary of a memory/tag operation — the same
	// granularity at which the op-level schedule fuzzer injects.
	GateOp GatePoint = iota
	// GateInternal is a point inside one operation, between directory-lock
	// acquisitions: after each tagged line of a multi-line AddTag, and
	// after a VAS/IAS commit computes its lock set but before it acquires
	// the directory locks. These orderings exist in the coherence protocol
	// but are unreachable from the op boundary.
	GateInternal
)

// Gate is the cycle-level scheduler hook (internal/schedexplore). When a
// gate is installed, active threads report every scheduling point to it
// instead of parking on the lax clock; Step may block the calling
// goroutine to serialize execution under an explored schedule. Step is
// always called with no directory locks held, so a parked core never
// blocks another core's coherence transactions.
type Gate interface {
	Step(core int, point GatePoint, cycles uint64)
}

// Access is one shared-resource touch attributed to the segment a core
// executes between two gate points. While a gate is installed, every
// thread records the accesses of its current segment; the controller
// drains them at the next scheduling point with TakeSegmentAccesses. The
// footprints drive the schedule explorer's independence relation (DPOR)
// and let counterexamples name the contended line directly.
//
// Write marks accesses that can change what a remote core observes:
// stores, CAS (which acquires exclusivity even on failure), the VAS/IAS
// target, and IAS's invalidation of the tagged lines. Read-class accesses
// cover loads, tagging (AddTag/RemoveTag bookkeeping), and the
// validation reads of the tag set — a Validate or commit outcome depends
// on remote writes to every tagged line, so those lines are part of the
// segment's footprint even though validation itself reads only the local
// eviction latch.
type Access struct {
	Line  core.Line
	Write bool
}

// AllocLine is the pseudo-resource recorded for shared-space allocation.
// Bump allocation is order-sensitive (two segments that both allocate
// return different addresses in different schedules), so allocating
// segments never commute: the explorer must treat any two of them as
// dependent.
const AllocLine = ^core.Line(0)

// recAccess records one shared access of the current segment. It costs a
// single predictable branch when no gate is installed.
func (t *Thread) recAccess(l core.Line, write bool) {
	if t.m.gate != nil {
		t.segAcc = append(t.segAcc, Access{Line: l, Write: write})
	}
}

// recTagSetReads records the current tag set as read-class accesses: the
// outcome of a validation (Validate, VAS, IAS) is decided by remote
// writes to any tagged line, which set this core's eviction latch.
func (t *Thread) recTagSetReads() {
	if t.m.gate == nil {
		return
	}
	for _, l := range t.tags {
		t.segAcc = append(t.segAcc, Access{Line: l})
	}
}

// TakeSegmentAccesses appends the accesses recorded since the previous
// scheduling point to dst and resets the segment log. It must only be
// called by the installed gate's controller while this core is parked at
// (or past) a scheduling point; the gate's park/grant channel operations
// order the log's writes before the controller's read.
func (t *Thread) TakeSegmentAccesses(dst []Access) []Access {
	dst = append(dst, t.segAcc...)
	t.segAcc = t.segAcc[:0]
	return dst
}

// SetGate installs (or removes, with nil) the machine's scheduler gate.
// Only call while quiescent.
func (m *Machine) SetGate(g Gate) { m.gate = g }

// clockSync is the machine-wide lax synchronization state. The fast path
// reads gmin; the slow path rescans every core's published clock once.
// Per-core park state (the sharded wakeup path) lives on each Thread.
type clockSync struct {
	// mu serializes membership changes (SetActive) with the rescans that
	// publish gmin, so every published bound is the minimum over one
	// consistent active set.
	mu sync.Mutex
	// gmin is a shared lower bound on the minimum published clock over
	// active threads (MaxUint64 when none), read lock-free on the throttle
	// fast path. Published clocks only advance, so a rescanned minimum
	// stays a valid lower bound until an enrolment lowers it, which
	// happens under mu.
	gmin atomic.Uint64
	// parked counts parked threads machine-wide: the wakeParked fast-out
	// is one load when nothing is parked, instead of an O(cores) flag scan
	// on every half-window broadcast.
	parked atomic.Int64
}

// BeginEpoch aligns every core's simulated clock to the current maximum
// (as if all cores idled at a barrier) and must be called, quiescent,
// before a measured parallel phase. Without alignment, a core that did
// setup work (e.g. prefilling) would start the phase far ahead of the
// others and the lax synchronization would serialize the epoch's start.
func (m *Machine) BeginEpoch() {
	var maxC uint64
	for _, t := range m.threads {
		if t.stats.Cycles > maxC {
			maxC = t.stats.Cycles
		}
	}
	for _, t := range m.threads {
		t.stats.Cycles = maxC
		t.pubCycles.Store(maxC)
		t.lastBcast = maxC
	}
	m.clock.gmin.Store(maxC)
}

// activeMin returns the minimum published clock over active threads, or
// MaxUint64 when none is active. Callers that publish the result to gmin
// must hold clock.mu.
func (m *Machine) activeMin() uint64 {
	min := ^uint64(0)
	for _, o := range m.threads {
		if !o.active.Load() {
			continue
		}
		if c := o.pubCycles.Load(); c < min {
			min = c
		}
	}
	return min
}

// SetActive enrols or withdraws this thread from lax clock
// synchronization. While active, the thread's simulated clock is kept
// within Config.SyncWindowCycles of the slowest active core.
func (t *Thread) SetActive(on bool) {
	cs := &t.m.clock
	cs.mu.Lock()
	if on {
		t.pubCycles.Store(t.stats.Cycles)
	}
	t.active.Store(on)
	// Membership changed: publish the new set's minimum before anyone
	// fast-paths past it. Enrolment may lower the bound; withdrawal may
	// raise it, so remaining cores fast-path instead of rescanning.
	cs.gmin.Store(t.m.activeMin())
	cs.mu.Unlock()
	// Parked cores must re-evaluate: withdrawal removes this thread from
	// the minimum; enrolment can only lower it.
	t.wakeParked()
}

// throttle stalls the calling thread while it is too far ahead of the
// slowest active core. Called at the top of every memory/tag operation,
// outside all directory locks.
func (t *Thread) throttle() {
	if g := t.m.gate; g != nil {
		if t.active.Load() {
			g.Step(t.id, GateOp, t.stats.Cycles)
		}
		return
	}
	window := t.m.cfg.SyncWindowCycles
	if window == 0 || !t.active.Load() {
		return
	}
	my := t.stats.Cycles
	t.pubCycles.Store(my)
	// Progress notification: wake parked cores every half window of our
	// own advancement (they may be blocked on us being the minimum).
	if my-t.lastBcast >= window/2 {
		t.lastBcast = my
		t.wakeParked()
	}
	// Fast path: gmin is a lower bound on the active-set minimum, so
	// being within the window of gmin proves being within the window of
	// the true minimum. One lock-free load replaces the O(cores) scan.
	// (Subtraction form: an empty active set publishes MaxUint64.)
	g := t.m.clock.gmin.Load()
	if g >= my || my-g <= window {
		return
	}
	t.throttleSlow(my, window)
}

// throttleSlow parks the thread until the slowest active core catches up.
// The caller is active and has just published pubCycles == my, so every
// scan below includes its own clock.
func (t *Thread) throttleSlow(my, window uint64) {
	if m := t.refreshMin(); m >= my || my-m <= window {
		return
	}
	// Wake every other parked core once before sleeping: this thread's own
	// clock publication may be exactly the advance a parked core that is
	// now the active minimum is waiting for, and without this hand-off the
	// last two runnable cores could park back-to-back and deadlock. A core
	// signalled here that is *not* within its window simply re-checks and
	// waits again (below) without signalling anyone — waking others on
	// every loop iteration would let two ahead-cores re-wake each other in
	// a host-time busy loop while the laggard starves.
	t.wakeParked()
	cs := &t.m.clock
	t.parkMu.Lock()
	t.parked.Store(true)
	// Publish the parked count before the re-scan (sequentially
	// consistent atomics): a waker that advanced its clock before our
	// counter increment is observed by the scan below, and one that
	// advanced after it observes a non-zero count, finds our parked flag,
	// and signals under parkMu — which it cannot acquire until Wait
	// releases it — so no wakeup is lost.
	cs.parked.Add(1)
	// Re-scan after publishing the parked state. The scan is the exact
	// minimum over published clocks, so the globally slowest core always
	// breaks out immediately — gmin is only ever a performance hint, never
	// the parking decision.
	for {
		if m := t.m.activeMin(); m >= my || my-m <= window {
			break
		}
		t.parkCond.Wait()
	}
	t.parked.Store(false)
	cs.parked.Add(-1)
	t.parkMu.Unlock()
}

// refreshMin rescans the active minimum and publishes it as the shared
// fast-path bound; one core's rescan refreshes gmin for every core.
// Between membership changes successive rescans under clock.mu only rise,
// so the store never lowers the bound.
func (t *Thread) refreshMin() uint64 {
	cs := &t.m.clock
	cs.mu.Lock()
	min := t.m.activeMin()
	cs.gmin.Store(min)
	cs.mu.Unlock()
	return min
}

// wakeParked signals every other parked core. The machine-wide parked
// count makes the common no-waiter case one atomic load (every core calls
// this each half window), and a core observed parked is signalled under
// its own park mutex, so distinct waiter/waker pairs never contend on a
// shared lock.
func (t *Thread) wakeParked() {
	if t.m.clock.parked.Load() == 0 {
		return
	}
	for _, o := range t.m.threads {
		if o == t || !o.parked.Load() {
			continue
		}
		o.parkMu.Lock()
		o.parkCond.Signal()
		o.parkMu.Unlock()
	}
}

// gateInternal reports an intra-operation scheduling point to the gate,
// if one is installed. Called with no directory locks held.
func (t *Thread) gateInternal() {
	if g := t.m.gate; g != nil && t.active.Load() {
		g.Step(t.id, GateInternal, t.stats.Cycles)
	}
}
