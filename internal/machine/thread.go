package machine

import (
	"sync"
	"sync/atomic"

	"repro/internal/cachemodel"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/tagobs"
)

// Thread is one simulated core. All methods must be called from a single
// goroutine; cross-core effects (invalidations, tag evictions) are applied
// by other cores under the relevant directory locks.
type Thread struct {
	m  *Machine
	id int
	// socket is the core's socket under the two-level topology (0 when
	// flat).
	socket int
	// arena is the core's private allocation extent over the shared space;
	// the Alloc fast path touches no shared state.
	arena *mem.Arena

	l1 *cachemodel.Cache
	l2 *cachemodel.Cache

	// tags holds the currently tagged lines in insertion order. Bounded by
	// Config.MaxTags, so linear scans are cheap.
	tags []core.Line
	// evicted is set when any tagged line of this core is invalidated by a
	// remote write or displaced from L1 (the paper's "evicted set" is
	// non-empty). Remote cores set it under the line's directory lock.
	evicted atomic.Bool
	// overflow is set when AddTag exceeded MaxTags; only this goroutine
	// touches it.
	overflow bool

	stats CoreStats
	// obs reports this core's events to the machine's tracer, telemetry
	// and reclamation hooks, stamped with stats.Cycles.
	obs tagobs.Observer

	// pendingEvicts holds L2 victims whose directory bits must be cleared
	// after the current access releases its directory lock (lock-order
	// discipline: at most one directory entry is locked at a time outside
	// VAS/IAS commits).
	pendingEvicts []core.Line
	// segAcc is the shared-access log of the current inter-gate segment,
	// recorded only while a schedule-explorer gate is installed (see
	// recAccess / TakeSegmentAccesses in sync.go).
	segAcc []Access
	// lockSet is scratch for the sorted line set locked by VAS/IAS.
	lockSet []core.Line
	// marks holds the lines this core has marked (MarkWrite), each once.
	marks []core.Line

	// Lax clock synchronization state (see sync.go).
	active    atomic.Bool
	pubCycles atomic.Uint64
	lastBcast uint64
	// parked is set (under parkMu) while this core sleeps on parkCond
	// waiting for the slowest active core to catch up. Wakers read it
	// lock-free to skip cores that are running.
	parked   atomic.Bool
	parkMu   sync.Mutex
	parkCond *sync.Cond
}

var _ core.Thread = (*Thread)(nil)

func newThread(m *Machine, id int) *Thread {
	t := &Thread{
		m:      m,
		id:     id,
		socket: m.socketOf(id),
		arena:  mem.NewArena(m.space),
		l1:     cachemodel.New(m.cfg.L1Bytes, m.cfg.L1Ways),
		l2:     cachemodel.New(m.cfg.L2Bytes, m.cfg.L2Ways),
		// The tag set is bounded by MaxTags and the VAS/IAS lock set by
		// MaxTags+1; sizing the reused buffers up front keeps every
		// memory/tag operation allocation-free.
		tags:          make([]core.Line, 0, m.cfg.MaxTags),
		lockSet:       make([]core.Line, 0, m.cfg.MaxTags+1),
		pendingEvicts: make([]core.Line, 0, 4),
	}
	t.parkCond = sync.NewCond(&t.parkMu)
	t.obs.Bind(&m.Hooks, id, &t.stats.Cycles)
	return t
}

// ID returns the simulated core id.
func (t *Thread) ID() int { return t.id }

// Alloc allocates line-aligned words from this core's private arena over
// the shared space (extent refills are the only shared-cursor touches).
// Under a schedule-explorer gate the allocation is recorded against the
// shared allocator pseudo-resource: bump allocation is order-sensitive, so
// two allocating segments must never be treated as independent.
func (t *Thread) Alloc(words int) core.Addr {
	t.recAccess(AllocLine, true)
	return t.arena.Alloc(words)
}

func (t *Thread) charge(cycles uint64, energy float64) {
	t.stats.Cycles += cycles
	t.stats.Energy += energy
}

// sendInvalidationLocked removes core c from the line's sharers, evicting
// any tag c holds on it. The caller holds d's lock, charges message costs
// and makes itself the owner. Under a two-level topology a message to a
// core on another socket pays the socket hop on top of the per-sharer
// fan-out cost.
func (t *Thread) sendInvalidationLocked(d dirEntry, c int, l core.Line) {
	d.sharers().remove(c)
	other := t.m.threads[c]
	if d.taggers().has(c) {
		d.taggers().remove(c)
		other.evicted.Store(true)
		other.stats.RemoteTagEvictions.Add(1)
		t.obs.Emit(core.EvTagEvicted, c, l)
	}
	other.stats.InvalidationsReceived.Add(1)
	t.stats.InvalidationsSent++
	t.charge(t.m.cfg.InvMsgCycles, t.m.cfg.EnergyInvMsg)
	if t.m.sockets > 1 && other.socket != t.socket {
		t.chargeSocketHop()
	}
	t.obs.Emit(core.EvInvalidation, c, l)
}

// chargeSocketHop prices one cross-socket message or transfer.
func (t *Thread) chargeSocketHop() {
	t.stats.SocketHops++
	t.charge(t.m.cfg.SocketHopCycles, t.m.cfg.EnergySocketHop)
}

// chargeRemoteFill prices a miss served cache-to-cache. sameSocket reports
// whether a cache on this core's socket could serve it; a fill from
// another socket pays the hop.
func (t *Thread) chargeRemoteFill(sameSocket bool) {
	cfg := &t.m.cfg
	t.stats.RemoteFills++
	t.charge(cfg.RemoteCycles, cfg.EnergyRemote)
	if t.m.sockets > 1 && !sameSocket {
		t.chargeSocketHop()
	}
}

// chargeMemFill prices a miss served by DRAM; a line homed on a remote
// socket's memory controller pays the memory hop.
func (t *Thread) chargeMemFill(l core.Line) {
	cfg := &t.m.cfg
	t.stats.MemFills++
	t.charge(cfg.MemCycles, cfg.EnergyMem)
	if t.m.sockets > 1 && t.m.homeSocket(l) != t.socket {
		t.stats.SocketHops++
		t.charge(cfg.MemHopCycles, cfg.EnergySocketHop)
	}
}

// sharerOnMySocket reports whether any core of set other than this one is
// on this core's socket (i.e. could serve a fill without a hop).
func (t *Thread) sharerOnMySocket(set coreBits) bool {
	return t.m.sockets == 1 || set.anyOther(t.id, t.m.sockMask[t.socket])
}

// chargeInvRound prices one invalidation round's base latency; the
// messages themselves fan out in parallel, so sendInvalidationLocked only
// adds a small per-sharer increment.
func (t *Thread) chargeInvRound(hadSharers bool) {
	if hadSharers {
		t.charge(t.m.cfg.InvBaseCycles, 0)
	}
}

// invalidateOthersLocked makes this core the exclusive holder of the line,
// invalidating every other sharer. The caller holds d's lock and releases
// it with this core as the owner.
func (t *Thread) invalidateOthersLocked(d dirEntry, l core.Line) {
	sharers := d.sharers()
	t.chargeInvRound(sharers.anyOther(t.id, nil))
	for c := sharers.next(0); c >= 0; c = sharers.next(c + 1) {
		if c != t.id {
			t.sendInvalidationLocked(d, c, l)
		}
	}
	sharers.only(t.id)
}

// fillLocal inserts line l into the private hierarchy models, recording L2
// victims for deferred directory cleanup and evicting tags displaced from
// L1 (spurious eviction). Safe to call with or without directory locks
// held: it touches only this core's state.
func (t *Thread) fillLocal(l core.Line) {
	if v, evicted := t.l2.Insert(l); evicted {
		// Inclusive hierarchy: an L2 victim must leave L1 too.
		if t.l1.Remove(v) {
			t.tagEvictSelf(v)
		}
		if v != l {
			t.pendingEvicts = append(t.pendingEvicts, v)
		}
	}
	if v, evicted := t.l1.Insert(l); evicted {
		// Victim stays resident in L2, but tags live at L1: displacing a
		// tagged line from L1 evicts the tag (spurious eviction).
		t.tagEvictSelf(v)
		_ = v
	}
}

// tagEvictSelf marks a capacity eviction of one of this core's own tagged
// lines, if l is tagged.
func (t *Thread) tagEvictSelf(l core.Line) {
	for _, tl := range t.tags {
		if tl == l {
			t.evicted.Store(true)
			t.stats.SpuriousEvictions++
			t.obs.Emit(core.EvTagEvicted, -1, l)
			return
		}
	}
}

// ForceTagEviction simulates a spurious capacity eviction of the named
// line, for adversarial harnesses (internal/schedfuzz, internal/
// schedexplore) that want eviction pressure aimed at a specific tag — say,
// one node of a hand-over-hand window — beyond what the cache geometry
// produces naturally. It follows the same path as a real displacement: the
// evicted latch is set and validation fails until ClearTagSet. A line that
// is not currently tagged is left alone (a window that already slid past
// it is unaffected) and false is reported.
func (t *Thread) ForceTagEviction(l core.Line) bool {
	if !t.hasTag(l) {
		return false
	}
	t.evicted.Store(true)
	t.stats.SpuriousEvictions++
	t.obs.Emit(core.EvTagEvicted, -1, l)
	return true
}

// TaggedLine returns the i'th tagged line in insertion order, so harnesses
// can aim ForceTagEviction at a held tag. i must be < TagCount().
func (t *Thread) TaggedLine(i int) core.Line { return t.tags[i] }

// drainEvictions clears directory presence for lines displaced from L2.
// Called with no directory locks held.
func (t *Thread) drainEvictions() {
	for len(t.pendingEvicts) > 0 {
		l := t.pendingEvicts[len(t.pendingEvicts)-1]
		t.pendingEvicts = t.pendingEvicts[:len(t.pendingEvicts)-1]
		d := t.m.dirAt(l)
		d.lock()
		o := d.owner()
		if d.sharers().has(t.id) {
			d.sharers().remove(t.id)
			if o == t.id {
				o = -1
				t.stats.Writebacks++
			}
		}
		// A tag here already failed the local check; just keep the
		// directory consistent.
		d.taggers().remove(t.id)
		d.release(o, d.marked())
	}
}

// touchLineLocked performs the coherence transaction for one access to line
// l and charges its cost. The caller holds d's lock and releases it with
// the owner this returns.
func (t *Thread) touchLineLocked(l core.Line, d dirEntry, write bool) (owner int) {
	t.recAccess(l, write)
	cfg := &t.m.cfg
	present := d.sharers().has(t.id)
	owner = d.owner()

	if write {
		if owner == t.id {
			t.chargeLocalHit(l)
			return owner
		}
		// Need exclusivity: invalidate every other sharer. Whether the fill
		// (if any) can be served on-socket is decided by the pre-invalidation
		// sharer set.
		othersHadIt := d.sharers().anyOther(t.id, nil)
		served := t.sharerOnMySocket(d.sharers())
		t.invalidateOthersLocked(d, l)
		if present {
			// Upgrade from Shared: data already local.
			t.chargeLocalHit(l)
		} else if othersHadIt {
			// Write miss served by a remote cache (plus the invalidations
			// already charged).
			t.chargeRemoteFill(served)
			t.obs.Emit(core.EvRemoteFill, -1, l)
			t.fillLocal(l)
		} else {
			t.chargeMemFill(l)
			t.obs.Emit(core.EvMemFill, -1, l)
			t.fillLocal(l)
		}
		return t.id
	}

	// Read.
	if present {
		t.chargeLocalHit(l)
		return owner
	}
	if owner >= 0 {
		// The modified/exclusive owner forwards the line and downgrades.
		// Under MESI/MESIF the downgrade writes the dirty data back; under
		// MOESI the owner moves to Owned and the writeback is deferred to
		// eviction (modeled as: no downgrade writeback).
		sameSocket := t.m.sockets == 1 || t.m.threads[owner].socket == t.socket
		t.chargeRemoteFill(sameSocket)
		if cfg.Protocol != MOESI {
			t.stats.Writebacks++
			t.charge(cfg.WritebackCycles, cfg.EnergyWriteback)
		}
	} else if !d.sharers().empty() && cfg.Protocol != MESI {
		// Clean cache-to-cache transfer from the Forward-state sharer
		// (MESIF) or the Owned sharer (MOESI); served on-socket when any
		// sharer is local.
		t.chargeRemoteFill(t.sharerOnMySocket(d.sharers()))
	} else {
		// Strict MESI serves clean lines from memory.
		t.chargeMemFill(l)
	}
	d.sharers().add(t.id)
	t.fillLocal(l)
	return -1
}

// touchForTagLocked performs the coherence transaction for AddTag: the tag
// is load-buffer metadata that rides on the line, so tagging a line that is
// already in L1 is free (the paper implements tags "by adding extra state
// to each core's load buffer"). A line that is not resident is fetched like
// a normal read (the transition-to-tagged state serves the miss), and that
// fill is charged. Like touchLineLocked, it returns the owner for the
// caller's release.
func (t *Thread) touchForTagLocked(l core.Line, d dirEntry) (owner int) {
	t.recAccess(l, false)
	cfg := &t.m.cfg
	owner = d.owner()
	if d.sharers().has(t.id) {
		if t.l1.Lookup(l) {
			return owner // resident in L1: tagging is free
		}
		// Present only in L2: the tagging access promotes it.
		t.l2.Lookup(l)
		t.stats.L2Hits++
		t.charge(cfg.L2HitCycles, cfg.EnergyL2)
		t.fillLocal(l)
		return owner
	}
	if owner >= 0 {
		sameSocket := t.m.sockets == 1 || t.m.threads[owner].socket == t.socket
		t.chargeRemoteFill(sameSocket)
		if cfg.Protocol != MOESI {
			t.stats.Writebacks++
			t.charge(cfg.WritebackCycles, cfg.EnergyWriteback)
		}
	} else if !d.sharers().empty() && cfg.Protocol != MESI {
		t.chargeRemoteFill(t.sharerOnMySocket(d.sharers()))
	} else {
		t.chargeMemFill(l)
	}
	d.sharers().add(t.id)
	t.fillLocal(l)
	return -1
}

// chargeLocalHit prices an access whose data is already somewhere in the
// local hierarchy, determining the level from the cache models.
func (t *Thread) chargeLocalHit(l core.Line) {
	cfg := &t.m.cfg
	if t.l1.Lookup(l) {
		t.stats.L1Hits++
		t.charge(cfg.L1HitCycles, cfg.EnergyL1)
		t.obs.Emit(core.EvL1Hit, -1, l)
		return
	}
	// By inclusion the line is in L2 (or the model lost it to staleness;
	// either way price it as an L2 hit and promote to L1).
	t.l2.Lookup(l)
	t.stats.L2Hits++
	t.charge(cfg.L2HitCycles, cfg.EnergyL2)
	t.obs.Emit(core.EvL2Hit, -1, l)
	t.fillLocal(l)
}
