package abtree

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/treeupdate"
)

// Elided realizes the paper's headline composition (Sections 1, 5.1, 7):
// "MemTags can serve as a natural and efficient fast-path for marking and
// LLX/SCX-based implementations". It runs the template of tree.go through
// tagged steps as the fast path and through LLX steps as the slow path — on
// the *same nodes* (the LLX/SCX info/marked header words are reserved in
// every node).
//
// Safety of the composition:
//
//   - Fast-path commits only while no slow operation is in flight: every
//     fast IAS tags the counting Mode line (core.Fallback), so a slow
//     entry invalidates all in-flight fast commits, and BeginFast refuses
//     while the count is non-zero. This keeps IAS from landing inside an
//     SCX's freeze/finalize/swing sequence.
//   - Slow-path SCXs remain visible to the fast path's reachability
//     invariant because freezing writes every dependency's info word —
//     which invalidates the line at every core holding a tag on it,
//     exactly like the fast path's own IAS transient marking.
//   - Nodes created on either path look quiescent to the other (fresh
//     nodes have info = 0 and marked = 0).
type Elided struct {
	tree
	fast treeupdate.TaggedSteps // guarded by fb's Mode line, bounded restarts
	slow treeupdate.LLXSteps
	fb   *core.Fallback

	// FastCommits / SlowCommits count where updates completed.
	FastCommits atomic.Uint64
	SlowCommits atomic.Uint64
}

var (
	_ intset.Set     = (*Elided)(nil)
	_ intset.Checker = (*Elided)(nil)
)

// NewElided creates an empty tree with parameters a, b; threshold is the
// number of fast-path attempts per operation before falling back (0
// selects the default).
func NewElided(mem core.Memory, a, b, threshold int) *Elided {
	e := &Elided{tree: newTree(mem, a, b), fb: core.NewFallback(mem)}
	if threshold > 0 {
		e.fb.Threshold = threshold
	}
	e.fast = e.taggedSteps(e.fb)
	e.slow = treeupdate.NewLLX(mem, e.ly.mutOff(), e.ly.mutWords())
	return e
}

// update runs one operation: fast attempts while no slow operation is in
// flight, then the whole operation, cleanup included, on the slow path.
func (e *Elided) update(th core.Thread, key uint64, insert bool) bool {
	fast, slow := e.fast.On(th), e.slow.On(th)
	var result, needCleanup bool
	if !e.fb.Run(th, e.fb.Threshold, func() (done bool) {
		done, result, needCleanup = e.updateOnce(fast, th, key, insert)
		return done
	}, func() {
		result = e.tree.update(slow, th, key, insert)
	}) {
		e.SlowCommits.Add(1)
		return result
	}
	e.FastCommits.Add(1)
	if needCleanup {
		// Remove the violation the update created, preferring guarded
		// fast-path fixes and falling back to the LLX/SCX rebalancer when
		// they keep failing.
		e.fb.Run(th, 4*e.fb.Threshold,
			func() bool { return e.cleanupPass(fast, th, key) },
			func() { e.cleanup(slow, th, key) })
	}
	return result
}

// Insert adds key, reporting whether it was absent.
func (e *Elided) Insert(th core.Thread, key uint64) bool { return e.update(th, key, true) }

// Delete removes key, reporting whether it was present.
func (e *Elided) Delete(th core.Thread, key uint64) bool { return e.update(th, key, false) }

// Contains reports whether key is present. The fast search needs no mode
// check for correctness (it commits nothing; its linearization comes from
// tag validation, which slow-path writes invalidate like any others), but
// it falls back to the plain LLX/SCX search when the tagged traversal
// keeps restarting (tags are advisory; searches too need a fallback for
// progress).
func (e *Elided) Contains(th core.Thread, key uint64) bool {
	found, ok := e.contains(e.fast.On(th), th, key)
	if !ok {
		found, _ = e.contains(e.slow.On(th), th, key)
	}
	return found
}

// ModeAddr exposes the Mode line for tests.
func (e *Elided) ModeAddr() core.Addr { return e.fb.ModeAddr() }
