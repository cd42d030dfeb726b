// Package txset adapts the transactional red-black map (internal/txmap)
// to the ordered-set interface, turning NOrec / tagged NOrec into a
// drop-in competitor for the hand-crafted concurrent sets. This realizes
// the classic comparison the paper's trade-off discussion implies: a
// general-purpose STM set pays validation and write-buffer overhead per
// operation, where the purpose-built tagged structures synchronize only on
// the few locations their invariants require.
package txset

import (
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/reclaim"
	"repro/internal/stm"
	"repro/internal/txmap"
)

// Set is an ordered set whose every operation is one STM transaction over
// a red-black tree.
type Set struct {
	tm *stm.TM
	m  *txmap.Map
}

var _ intset.Set = (*Set)(nil)

// New creates an empty set over the given STM instance, with one reusable
// transaction per thread of mem (stm.TM.Prepare).
func New(mem core.Memory, tm *stm.TM) *Set {
	tm.Prepare(mem.NumThreads())
	return &Set{tm: tm, m: txmap.New(mem)}
}

// TM returns the underlying STM (for abort statistics).
func (s *Set) TM() *stm.TM { return s.tm }

// SetReclaim wires a reclamation pool (object size txmap.NodeWords) into
// the underlying map and attaches the pool's domain to the STM, so every
// transaction attempt is bracketed. Only call while quiescent, before
// operations.
func (s *Set) SetReclaim(p *reclaim.Pool) {
	s.tm.SetReclaim(p.Domain())
	s.m.SetReclaim(p)
}

// Insert adds key, reporting whether it was absent.
func (s *Set) Insert(th core.Thread, key uint64) bool {
	var added bool
	s.tm.RunCached(th, func(tx *stm.Tx) {
		added = s.m.Put(tx, key, 1, th)
	})
	return added
}

// Delete removes key, reporting whether it was present.
func (s *Set) Delete(th core.Thread, key uint64) bool {
	var removed bool
	s.tm.RunCached(th, func(tx *stm.Tx) {
		removed = s.m.Delete(tx, key)
	})
	return removed
}

// Contains reports whether key is present.
func (s *Set) Contains(th core.Thread, key uint64) bool {
	var found bool
	s.tm.RunCached(th, func(tx *stm.Tx) {
		_, found = s.m.Get(tx, key)
	})
	return found
}

// Keys enumerates the set in order (one read-only transaction).
func (s *Set) Keys(th core.Thread) []uint64 {
	var keys []uint64
	s.tm.RunCached(th, func(tx *stm.Tx) {
		keys = keys[:0]
		s.m.ForEach(tx, func(k, _ uint64) { keys = append(keys, k) })
	})
	return keys
}
