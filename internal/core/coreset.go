package core

import "math/bits"

// MaxCores is the largest number of simulated cores any backend supports.
// The paper's Graphite evaluation stops at 64 flat cores; the simulator
// scales past it (sharded hot state, two-level topology). The machine's
// directory sizes its sharer/tagger sets to the configured core count and
// reports them as CoreSets; 512 keeps a CoreSet at eight words, large
// enough for the NUMA sweeps.
const MaxCores = 512

const coreSetWords = MaxCores / 64

// CoreSet is a fixed-capacity bitset over core ids [0, MaxCores). It is a
// plain value type with no synchronization: directory entries mutate it
// under their per-line mutex, debug APIs return copies. The zero value is
// the empty set.
type CoreSet [coreSetWords]uint64

// Contains reports whether core c is in the set.
func (s *CoreSet) Contains(c int) bool {
	return s[uint(c)>>6]&(1<<(uint(c)&63)) != 0
}

// Add inserts core c.
func (s *CoreSet) Add(c int) {
	s[uint(c)>>6] |= 1 << (uint(c) & 63)
}

// Remove deletes core c.
func (s *CoreSet) Remove(c int) {
	s[uint(c)>>6] &^= 1 << (uint(c) & 63)
}

// Empty reports whether no core is in the set.
func (s *CoreSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of cores in the set (population count).
func (s *CoreSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest member >= from, or -1 when there is none.
// Iterate with:
//
//	for c := s.Next(0); c >= 0; c = s.Next(c + 1)
func (s *CoreSet) Next(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= MaxCores {
		return -1
	}
	wi := uint(from) >> 6
	w := s[wi] >> (uint(from) & 63)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < coreSetWords; wi++ {
		if s[wi] != 0 {
			return int(wi)<<6 + bits.TrailingZeros64(s[wi])
		}
	}
	return -1
}

// ContainsAll reports whether o is a subset of s.
func (s *CoreSet) ContainsAll(o *CoreSet) bool {
	for i, w := range o {
		if w&^s[i] != 0 {
			return false
		}
	}
	return true
}
