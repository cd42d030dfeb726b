// Package cachemodel implements a set-associative cache replacement model
// with LRU eviction. It models *presence only*: which lines are resident in
// a private cache level and which victim a fill displaces. Data and
// coherence authority live elsewhere (in the machine's directory), so a
// Cache is free of synchronization and must only be used by the goroutine
// that owns the simulated core.
package cachemodel

import (
	"fmt"

	"repro/internal/core"
)

// Cache is a set-associative cache presence model with LRU replacement.
//
// Each set is ways consecutive keys kept in recency order, most recently
// used first. A key is the line number plus one, so the zero key marks an
// empty way and line 0 stays representable; empty ways always sit at the
// tail. An 8-way set is therefore one 64-byte host line, and the LRU victim
// is simply the last key.
type Cache struct {
	keys []uint64
	ways int
	mask uint64 // number of sets - 1
}

// New creates a cache model of totalBytes capacity with the given
// associativity. totalBytes must be a multiple of ways*core.LineSize and
// the resulting number of sets must be a power of two.
func New(totalBytes, ways int) *Cache {
	if ways <= 0 {
		panic("cachemodel: non-positive associativity")
	}
	linesTotal := totalBytes / core.LineSize
	if linesTotal*core.LineSize != totalBytes || linesTotal%ways != 0 {
		panic(fmt.Sprintf("cachemodel: capacity %dB not divisible into %d-way sets", totalBytes, ways))
	}
	nSets := linesTotal / ways
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cachemodel: number of sets %d is not a power of two", nSets))
	}
	return &Cache{keys: make([]uint64, linesTotal), ways: ways, mask: uint64(nSets - 1)}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.mask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// CapacityLines returns the total number of lines the cache can hold.
func (c *Cache) CapacityLines() int { return len(c.keys) }

// set returns line l's set and its key.
func (c *Cache) set(l core.Line) (set []uint64, key uint64) {
	i := int(uint64(l)&c.mask) * c.ways
	return c.keys[i : i+c.ways : i+c.ways], uint64(l) + 1
}

// find returns the way holding key, or -1. Valid keys form a prefix of the
// set, so the scan stops at the first empty way.
func find(set []uint64, key uint64) int {
	for i, k := range set {
		if k == key {
			return i
		}
		if k == 0 {
			break
		}
	}
	return -1
}

// toFront moves the key at way i to the most recently used position.
func toFront(set []uint64, i int) {
	k := set[i]
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = k
}

// Lookup reports whether line l is resident, updating its LRU position on a
// hit.
func (c *Cache) Lookup(l core.Line) bool {
	set, key := c.set(l)
	i := find(set, key)
	if i < 0 {
		return false
	}
	toFront(set, i)
	return true
}

// Contains reports whether line l is resident without touching LRU state.
func (c *Cache) Contains(l core.Line) bool {
	set, key := c.set(l)
	return find(set, key) >= 0
}

// Insert makes line l resident. If the set is full, the least recently used
// entry is displaced and returned with evicted=true. Inserting a line that
// is already resident only refreshes its LRU position.
func (c *Cache) Insert(l core.Line) (victim core.Line, evicted bool) {
	set, key := c.set(l)
	if i := find(set, key); i >= 0 {
		toFront(set, i)
		return 0, false
	}
	last := len(set) - 1
	tail := set[last]
	set[last] = key
	toFront(set, last)
	if tail == 0 {
		return 0, false
	}
	return core.Line(tail - 1), true
}

// Remove invalidates line l if resident and reports whether it was.
func (c *Cache) Remove(l core.Line) bool {
	set, key := c.set(l)
	i := find(set, key)
	if i < 0 {
		return false
	}
	copy(set[i:], set[i+1:])
	set[len(set)-1] = 0
	return true
}

// ResidentLines returns the number of currently resident lines (for tests).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, k := range c.keys {
		if k != 0 {
			n++
		}
	}
	return n
}
