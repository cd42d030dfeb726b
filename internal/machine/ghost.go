package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tagobs"
)

// SpareThread returns an auxiliary agent that is not a simulated core: an
// uncached, uncounted participant in the coherence protocol, in the way a
// DMA engine or a management processor sits on a real interconnect. Its
// loads and stores are coherent — a store invalidates every cached copy of
// the line, evicting any tags on it, exactly like a core's write — but the
// agent caches nothing, accrues no cycles or energy, does not appear in
// NumThreads, and does not participate in lax-clock synchronization or
// schedule gating. Harness controllers (the fallback Mode-line flipper)
// use it so driving a Mode line does not consume a simulated core.
//
// Tag operations and write marks are meaningless for an agent with no L1
// and panic.
func (m *Machine) SpareThread() core.Thread {
	g := &ghost{m: m}
	g.obs.Bind(&m.Hooks, -1, nil)
	return g
}

// ghost reports its coherence messages as core -1 at cycle 0.
type ghost struct {
	m   *Machine
	obs tagobs.Observer
}

var _ core.Thread = (*ghost)(nil)

// ID returns -1: the ghost is not a core.
func (g *ghost) ID() int { return -1 }

// Alloc allocates line-aligned words from the shared space.
func (g *ghost) Alloc(words int) core.Addr { return g.m.space.Alloc(words) }

// Load reads the word at a. The directory lock orders the read against
// core writes; no sharer bit is taken because nothing is cached.
func (g *ghost) Load(a core.Addr) uint64 {
	d := g.m.dirAt(a.Line())
	d.lock()
	v := g.m.space.Read(a)
	d.unlock()
	return v
}

// Store writes v at a, invalidating every cached copy of the line.
func (g *ghost) Store(a core.Addr, v uint64) {
	l := a.Line()
	d := g.m.dirAt(l)
	d.lock()
	g.invalidateAllLocked(d, l)
	g.m.space.Write(a, v)
	d.release(-1, d.marked())
}

// CAS compares-and-swaps the word at a. Like hardware CAS it acquires the
// line exclusively (here: invalidates all cached copies) whether or not
// the comparison succeeds.
func (g *ghost) CAS(a core.Addr, old, new uint64) bool {
	l := a.Line()
	d := g.m.dirAt(l)
	d.lock()
	g.invalidateAllLocked(d, l)
	ok := g.m.space.Read(a) == old
	if ok {
		g.m.space.Write(a, new)
	}
	d.release(-1, d.marked())
	return ok
}

// invalidateAllLocked removes every core from the line's sharers, evicting
// their tags on it. The caller holds d's lock and releases it unowned.
// Messages are attributed to core -1 in the trace; no core is charged (the
// agent is outside the cost model).
func (g *ghost) invalidateAllLocked(d dirEntry, l core.Line) {
	sharers, taggers := d.sharers(), d.taggers()
	for c := sharers.next(0); c >= 0; c = sharers.next(c + 1) {
		other := g.m.threads[c]
		if taggers.has(c) {
			taggers.remove(c)
			other.evicted.Store(true)
			other.stats.RemoteTagEvictions.Add(1)
			g.obs.Emit(core.EvTagEvicted, c, l)
		}
		other.stats.InvalidationsReceived.Add(1)
		g.obs.Emit(core.EvInvalidation, c, l)
	}
	clear(sharers)
}

// AddTag is unsupported: the ghost has no L1 for tags to live in.
func (g *ghost) AddTag(core.Addr, int) bool { panic(ghostNoTags("AddTag")) }

// RemoveTag is unsupported.
func (g *ghost) RemoveTag(core.Addr, int) { panic(ghostNoTags("RemoveTag")) }

// Validate is unsupported.
func (g *ghost) Validate() bool { panic(ghostNoTags("Validate")) }

// VAS is unsupported.
func (g *ghost) VAS(core.Addr, uint64) bool { panic(ghostNoTags("VAS")) }

// IAS is unsupported.
func (g *ghost) IAS(core.Addr, uint64) bool { panic(ghostNoTags("IAS")) }

// ClearTagSet is a no-op: the tag set is always empty.
func (g *ghost) ClearTagSet() {}

// TagCount is always zero.
func (g *ghost) TagCount() int { return 0 }

// MarkWrite is unsupported: a write mark is directory state kept for a core.
func (g *ghost) MarkWrite(core.Addr, int) { panic(ghostNoTags("MarkWrite")) }

// UnmarkWrites is a no-op: the ghost never holds a mark.
func (g *ghost) UnmarkWrites() {}

func ghostNoTags(op string) string {
	return fmt.Sprintf("machine: %s on a SpareThread ghost agent (no cache, no tags)", op)
}
