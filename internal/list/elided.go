package list

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/intset"
)

// Elided wires the paper's HLE-style fallback path (Section 3) around the
// VAS-based list: updates attempt the tagged fast path (Algorithm 1) up to
// a threshold of consecutive failures, then flip the shared Mode line to
// SLOW and complete on the plain Harris-Michael CAS path. Both paths share
// the node layout (marked next pointers), which is why the paper calls
// marking-based designs "correct fall-back paths for MemTag-based data
// structures":
//
//   - every fast-path commit includes the Mode line in its tag set, so the
//     switch to SLOW invalidates all in-flight fast-path commits;
//   - slow-path CASes invalidate tagged lines like any other write, so
//     remaining fast-path attempts observe slow-path updates.
//
// The structure therefore guarantees progress under arbitrary spurious
// validation failures (e.g. a pathologically small L1), which pure tagging
// cannot.
type Elided struct {
	vas *VAS
	fb  *core.Fallback

	// FastCommits / SlowCommits count where updates completed, for tests
	// and fallback-rate experiments.
	FastCommits atomic.Uint64
	SlowCommits atomic.Uint64
}

var _ intset.Set = (*Elided)(nil)

// NewElided creates an empty list; threshold is the number of fast-path
// attempts per operation before falling back (0 selects the default).
func NewElided(mem core.Memory, threshold int) *Elided {
	fb := core.NewFallback(mem)
	if threshold > 0 {
		fb.Threshold = threshold
	}
	return &Elided{vas: NewVAS(mem), fb: fb}
}

// update runs one operation: fast attempts, then the slow path. The guard
// handed to an attempt is BeginFast: it joins the Mode line to the current
// tag set and checks the mode is still FAST, so the attempt's VAS/IAS
// validates the mode together with the data.
func (s *Elided) update(th core.Thread,
	fast func(guard func() bool) (done, result bool),
	slow func() bool) (result bool) {

	guard := func() bool { return s.fb.BeginFast(th) }
	if s.fb.Run(th, s.fb.Threshold, func() (done bool) {
		done, result = fast(guard)
		return done
	}, func() { result = slow() }) {
		s.FastCommits.Add(1)
	} else {
		s.SlowCommits.Add(1)
	}
	return result
}

// Insert adds key, reporting whether it was absent.
func (s *Elided) Insert(th core.Thread, key uint64) bool {
	return s.update(th,
		func(g func() bool) (bool, bool) { return s.vas.insertOnce(th, key, g) },
		func() bool { return harrisInsert(th, s.vas.head, key) })
}

// Delete removes key, reporting whether it was present.
func (s *Elided) Delete(th core.Thread, key uint64) bool {
	return s.update(th,
		func(g func() bool) (bool, bool) { return s.vas.deleteOnce(th, key, g) },
		func() bool { return harrisDelete(th, s.vas.head, key) })
}

// Contains reports whether key is present. Reads need no elision: the
// traversal is identical on both paths and performs no tagged commits.
func (s *Elided) Contains(th core.Thread, key uint64) bool {
	return s.vas.Contains(th, key)
}

// Keys enumerates the set while quiescent.
func (s *Elided) Keys(th core.Thread) []uint64 { return s.vas.Keys(th) }

// ModeAddr exposes the Mode line for tests.
func (s *Elided) ModeAddr() core.Addr { return s.fb.ModeAddr() }
