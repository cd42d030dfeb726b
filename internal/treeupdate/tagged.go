package treeupdate

import (
	"repro/internal/core"
	"repro/internal/reclaim"
)

// RestartBudget bounds the restarts of one guarded attempt's descent. A
// tagged descent whose window does not fit the L1 restarts forever (tags are
// advisory; progress needs the slow path), so an attempt that has a fallback
// gives up after this many. Attempts without one search unboundedly, as in
// the paper's standalone algorithm.
const RestartBudget = 8

// Tagged is the Step of the paper's hand-over-hand tagging (Algorithms 3-5):
// Hold is AddTag, a descent keeps a sliding window of tags, and Commit is one
// invalidate-and-swap that validates every tag, invalidates the tagged lines
// at all other cores (the transient marking that stands in for SCX's
// finalizing) and swings the pointer.
type Tagged struct {
	bytes  int // node footprint AddTag covers
	mutOff int // word offset of a node's mutable region
	pool   *reclaim.Pool
	fb     *core.Fallback // non-nil: attempts are guarded and bounded
	th     core.Thread

	dirty    bool // something was held since the last successful validation
	restarts int  // Seeks since Begin
	_        [64]byte
}

// TaggedSteps holds one Tagged step per thread of a memory.
type TaggedSteps []Tagged

// NewTagged returns steps for nodes of nodeBytes bytes whose mutable words
// start at word mutOff. With fb non-nil every attempt checks fb's Mode line
// at Ready and gives up its descent after RestartBudget restarts.
func NewTagged(mem core.Memory, nodeBytes, mutOff int, fb *core.Fallback) TaggedSteps {
	steps := make(TaggedSteps, mem.NumThreads())
	for i := range steps {
		steps[i] = Tagged{bytes: nodeBytes, mutOff: mutOff, fb: fb}
	}
	return steps
}

// SetPool makes every step allocate replacements from p, retire the nodes
// its commits remove and bracket attempts with p's Enter/Exit. Only call
// while quiescent.
func (ss TaggedSteps) SetPool(p *reclaim.Pool) {
	for i := range ss {
		ss[i].pool = p
	}
}

// On returns the calling thread's step, bound to its handle.
func (ss TaggedSteps) On(th core.Thread) Step {
	s := &ss[th.ID()]
	s.th = th
	return s
}

func (s *Tagged) Begin() {
	s.dirty, s.restarts = false, 0
	if s.pool != nil {
		s.pool.Enter(s.th)
	}
}

func (s *Tagged) End() {
	if s.pool != nil {
		s.pool.Exit(s.th)
	}
}

func (s *Tagged) Seek(root core.Addr) bool {
	for s.fb == nil || s.restarts <= RestartBudget {
		s.restarts++
		s.th.ClearTagSet()
		s.th.AddTag(root, s.bytes)
		if s.Validate() {
			return true
		}
	}
	s.th.ClearTagSet()
	return false
}

// Down validates with the window extended to next before the oldest tag may
// go: the node next was read from was unchanged since the last validation,
// when it was in the tree, so next was its child then.
func (s *Tagged) Down(drop, next core.Addr) bool {
	s.th.AddTag(next, s.bytes)
	if !s.Validate() {
		return false
	}
	if !drop.IsNil() {
		s.th.RemoveTag(drop, s.bytes)
	}
	return true
}

func (s *Tagged) Snapshots() bool { return false }

func (s *Tagged) Hold(n core.Addr, _ int) bool {
	s.th.AddTag(n, s.bytes) // an overflow fails the next validation
	s.dirty = true
	return true
}

func (s *Tagged) Release(n core.Addr)           { s.th.RemoveTag(n, s.bytes) }
func (s *Tagged) Mut(n core.Addr, i int) uint64 { return s.th.Load(n.Plus(s.mutOff + i)) }

func (s *Tagged) Validate() bool {
	ok := s.th.Validate()
	if ok {
		s.dirty = false
	}
	return ok
}

func (s *Tagged) Ready() bool {
	if s.dirty && !s.Validate() {
		return false
	}
	// The guard joins the Mode line to the tag set, so the IAS validates the
	// mode together with the window.
	return s.fb == nil || s.fb.BeginFast(s.th)
}

// Commit is one IAS. The IAS invalidates the whole tagged window at every
// other core, so the thread whose IAS detaches a node is its provably unique
// retirer.
func (s *Tagged) Commit(c Change) bool {
	ok := s.th.IAS(c.Slot, uint64(c.New))
	s.Abandon()
	switch {
	case s.pool == nil:
	case ok:
		for _, n := range c.Removed {
			if !n.IsNil() {
				s.pool.Retire(s.th, n)
			}
		}
	default: // the replacements were never published
		for _, n := range c.Fresh {
			if !n.IsNil() {
				s.pool.FreePrivate(s.th, n)
			}
		}
	}
	return ok
}

func (s *Tagged) Abandon() {
	s.th.ClearTagSet()
	s.dirty = false
}

func (s *Tagged) Reclaims() bool { return s.pool != nil }

func (s *Tagged) Alloc() core.Addr {
	if s.pool == nil {
		return core.NilAddr
	}
	return s.pool.Alloc(s.th)
}
