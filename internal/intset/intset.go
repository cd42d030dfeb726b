// Package intset defines the ordered-set interface implemented by every
// search data structure in this repository (lists, trees, skip lists), plus
// shared testing utilities: a sequential reference model and reusable
// stress harnesses.
package intset

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// KeyMin and KeyMax bound the usable key range; values outside are reserved
// for sentinel nodes.
const (
	KeyMin uint64 = 1
	KeyMax uint64 = 1<<63 - 1
)

// Set is a concurrent ordered set of uint64 keys. Every operation takes the
// calling goroutine's thread handle; a handle must not be used by two
// goroutines concurrently.
type Set interface {
	// Insert adds key and reports whether it was absent.
	Insert(th core.Thread, key uint64) bool
	// Delete removes key and reports whether it was present.
	Delete(th core.Thread, key uint64) bool
	// Contains reports whether key is present.
	Contains(th core.Thread, key uint64) bool
}

// Snapshotter is implemented by sets that can enumerate their keys while
// quiescent, for test verification.
type Snapshotter interface {
	// Keys returns the set's keys in ascending order. Only valid while no
	// other thread is operating on the set.
	Keys(th core.Thread) []uint64
}

// Checker is implemented by sets with structural invariants that a
// history cannot show (balance, degree bounds, no pending rebalancing
// flags): a skipped cleanup leaves every history linearizable.
type Checker interface {
	// CheckInvariants describes the first broken invariant, or returns
	// nil. Only valid while no other thread is operating on the set.
	CheckInvariants(th core.Thread) error
}

// ErrStructure marks a failed quiescent structural check (a Snapshotter's
// keys out of order, or a Checker's error), apart from any history verdict
// or membership mismatch.
var ErrStructure = errors.New("structural check failed")

// checkQuiescent is the one structural check every harness runs on a
// quiescent set: a Snapshotter's keys are strictly ascending, then a
// Checker's own invariants hold. A failure wraps ErrStructure.
func checkQuiescent(th core.Thread, s Set) error {
	if snap, ok := s.(Snapshotter); ok {
		keys := snap.Keys(th)
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return fmt.Errorf("%w: keys not strictly sorted at %d: %d >= %d", ErrStructure, i, keys[i-1], keys[i])
			}
		}
	}
	if c, ok := s.(Checker); ok {
		if err := c.CheckInvariants(th); err != nil {
			return fmt.Errorf("%w: %w", ErrStructure, err)
		}
	}
	return nil
}

// Reference is a sequential model for equivalence checking.
type Reference map[uint64]bool

// Insert adds key, reporting whether it was absent.
func (r Reference) Insert(key uint64) bool {
	if r[key] {
		return false
	}
	r[key] = true
	return true
}

// Delete removes key, reporting whether it was present.
func (r Reference) Delete(key uint64) bool {
	if !r[key] {
		return false
	}
	delete(r, key)
	return true
}

// Contains reports membership.
func (r Reference) Contains(key uint64) bool { return r[key] }

// Prefill inserts n random distinct keys from [KeyMin, keyRange] using the
// given thread, returning the inserted keys. Deterministic in seed.
func Prefill(th core.Thread, s Set, n int, keyRange uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := KeyMin + uint64(rng.Int63n(int64(keyRange)))
		if s.Insert(th, k) {
			keys = append(keys, k)
		}
	}
	return keys
}
