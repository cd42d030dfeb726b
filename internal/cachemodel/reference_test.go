package cachemodel

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// refCache is the timestamp-LRU model Cache replaced: every way carries a
// valid bit and a last-use clock, a fill takes the first free way, and a
// full set evicts the way with the oldest clock. It is kept as the oracle
// the recency-ordered sets must match call for call.
type refCache struct {
	sets  [][]refEntry
	clock uint64
}

type refEntry struct {
	line  core.Line
	valid bool
	used  uint64
}

func newRef(nSets, ways int) *refCache {
	sets := make([][]refEntry, nSets)
	for i := range sets {
		sets[i] = make([]refEntry, ways)
	}
	return &refCache{sets: sets}
}

func (c *refCache) set(l core.Line) []refEntry {
	return c.sets[uint64(l)&uint64(len(c.sets)-1)]
}

func (c *refCache) Lookup(l core.Line) bool {
	c.clock++
	set := c.set(l)
	for i := range set {
		if set[i].valid && set[i].line == l {
			set[i].used = c.clock
			return true
		}
	}
	return false
}

func (c *refCache) Contains(l core.Line) bool {
	for _, e := range c.set(l) {
		if e.valid && e.line == l {
			return true
		}
	}
	return false
}

func (c *refCache) Insert(l core.Line) (victim core.Line, evicted bool) {
	c.clock++
	set := c.set(l)
	freeIdx, lruIdx := -1, 0
	for i := range set {
		if set[i].valid && set[i].line == l {
			set[i].used = c.clock
			return 0, false
		}
		if !set[i].valid {
			if freeIdx < 0 {
				freeIdx = i
			}
		} else if set[i].used < set[lruIdx].used || !set[lruIdx].valid {
			lruIdx = i
		}
	}
	if freeIdx >= 0 {
		set[freeIdx] = refEntry{line: l, valid: true, used: c.clock}
		return 0, false
	}
	victim = set[lruIdx].line
	set[lruIdx] = refEntry{line: l, valid: true, used: c.clock}
	return victim, true
}

func (c *refCache) Remove(l core.Line) bool {
	set := c.set(l)
	for i := range set {
		if set[i].valid && set[i].line == l {
			set[i].valid = false
			return true
		}
	}
	return false
}

func (c *refCache) ResidentLines() int {
	n := 0
	for _, set := range c.sets {
		for _, e := range set {
			if e.valid {
				n++
			}
		}
	}
	return n
}

// TestMatchesTimestampLRU drives Cache and the timestamp-LRU oracle with
// the same seeded random calls on 1-, 2- and 8-way geometries of 1 to 64
// sets, and requires every return value and every victim to agree. Keys
// span three times the capacity and include line 0, which must not be
// mistaken for an empty way.
func TestMatchesTimestampLRU(t *testing.T) {
	const calls = 1 << 20
	var geoms [][2]int
	for _, ways := range []int{1, 2, 8} {
		for sets := 1; sets <= 64; sets *= 2 {
			geoms = append(geoms, [2]int{sets, ways})
		}
	}
	per := calls / len(geoms)
	for gi, g := range geoms {
		sets, ways := g[0], g[1]
		c, ref := New(sets*ways*core.LineSize, ways), newRef(sets, ways)
		rng := rand.New(rand.NewSource(int64(gi) + 1))
		keys := 3 * sets * ways
		for i := 0; i < per; i++ {
			l := core.Line(rng.Intn(keys))
			switch op := rng.Intn(8); {
			case op < 3:
				if got, want := c.Lookup(l), ref.Lookup(l); got != want {
					t.Fatalf("%dx%d call %d: Lookup(%d) = %v, oracle %v", sets, ways, i, l, got, want)
				}
			case op < 6:
				gv, ge := c.Insert(l)
				wv, we := ref.Insert(l)
				if gv != wv || ge != we {
					t.Fatalf("%dx%d call %d: Insert(%d) = (%d, %v), oracle (%d, %v)", sets, ways, i, l, gv, ge, wv, we)
				}
			case op < 7:
				if got, want := c.Contains(l), ref.Contains(l); got != want {
					t.Fatalf("%dx%d call %d: Contains(%d) = %v, oracle %v", sets, ways, i, l, got, want)
				}
			default:
				if got, want := c.Remove(l), ref.Remove(l); got != want {
					t.Fatalf("%dx%d call %d: Remove(%d) = %v, oracle %v", sets, ways, i, l, got, want)
				}
			}
		}
		if got, want := c.ResidentLines(), ref.ResidentLines(); got != want {
			t.Fatalf("%dx%d: %d resident lines, oracle %d", sets, ways, got, want)
		}
	}
}

// TestHitAllocFree pins the model's hot path at zero allocations.
func TestHitAllocFree(t *testing.T) {
	c := New(32<<10, 8)
	for l := core.Line(0); l < 256; l++ {
		c.Insert(l)
	}
	l := core.Line(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Lookup(l)
		c.Insert(l + 512)
		c.Remove(l + 512)
		l = (l + 1) % 256
	}); n != 0 {
		t.Fatalf("Lookup/Insert/Remove allocate %.1f times per call", n)
	}
}
