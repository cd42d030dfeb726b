package bst

import (
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/treeupdate"
)

// set is the tree bound to one flavour's steps: the search and the two
// updates exist once, below, and run through whichever treeupdate.Step the
// flavour supplies.
type set struct {
	base
	steps treeupdate.Steps
}

var _ intset.Set = (*set)(nil)

// LLX is the software-baseline external BST built on LLX/SCX.
type LLX struct{ set }

// NewLLX creates an empty tree.
func NewLLX(mem core.Memory) *LLX {
	return &LLX{set{newBase(mem), treeupdate.NewLLX(mem, fLeft, 2)}}
}

// HoH is the hand-over-hand-tagged external BST: searches keep a tagged
// window of the last three nodes on the path (gp, p, l), and updates
// commit with one IAS that transiently marks the removed nodes. No
// per-node flags, marks or helping structures are needed — the minimal
// synchronization the paper advocates.
type HoH struct{ set }

// NewHoH creates an empty tree.
func NewHoH(mem core.Memory) *HoH {
	// Window: gp, p, l plus the next node during extension = 4 nodes.
	if mem.MaxTags() < 4 {
		panic("bst: MaxTags below the HoH tagging window (4 lines)")
	}
	return &HoH{set{newBase(mem), treeupdate.NewTagged(mem, nodeBytes, fLeft, nil)}}
}

// Keys enumerates the set while quiescent.
func (s *set) Keys(th core.Thread) []uint64 { return s.collect(th) }

// Root returns the top sentinel (for invariant checks).
func (s *set) Root() core.Addr { return s.root }

// attempt is one run of the template by one thread.
type attempt struct {
	*set
	th core.Thread
	st treeupdate.Step
}

func (s *set) begin(th core.Thread) attempt {
	a := attempt{set: s, th: th, st: s.steps.On(th)}
	a.st.Begin()
	return a
}

// end closes the attempt, letting go of whatever is still held.
func (a *attempt) end() {
	a.st.Abandon()
	a.st.End()
}

// locate descends to the leaf covering key, returning the last three nodes.
// Under tags the step keeps all three held — they were in the tree at the
// last successful validation — and restarts on a failed one. The two
// sentinel levels guarantee gp and p are valid internal nodes for every
// legal key.
func (a *attempt) locate(key uint64) (gp, p, l core.Addr) {
	for a.st.Seek(a.root) {
		gp, p, l = core.NilAddr, core.NilAddr, a.root
		for {
			if isLeaf(a.th, l) {
				return gp, p, l
			}
			slot, _ := childSlot(a.th, l, key)
			next := core.Addr(a.th.Load(slot))
			if !a.st.Down(gp, next) {
				break
			}
			gp, p, l = p, l, next
		}
	}
	panic("bst: unguarded descent gave up")
}

// holdLinked holds parent by snapshot and checks it still points at child
// (from either side: the snapshot has both, and no router key is loaded).
func (a *attempt) holdLinked(parent, child core.Addr) bool {
	return a.st.Hold(parent, 2) &&
		(core.Addr(a.st.Mut(parent, 0)) == child || core.Addr(a.st.Mut(parent, 1)) == child)
}

// slotTo returns the slot of held parent that points at child, the next node
// on the search path for key. A snapshot is compared with child; under tags
// the descent proved the link, so the router key picks the slot.
func (a *attempt) slotTo(parent core.Addr, key uint64, child core.Addr) core.Addr {
	if !a.st.Snapshots() {
		slot, _ := childSlot(a.th, parent, key)
		return slot
	}
	if core.Addr(a.st.Mut(parent, 0)) == child {
		return parent.Plus(fLeft)
	}
	return parent.Plus(fRight)
}

// Contains reports whether key is present: under LLX a plain sequential
// search (leaf keys are immutable), under tags linearized at locate's last
// successful validation.
func (s *set) Contains(th core.Thread, key uint64) bool {
	a := s.begin(th)
	_, _, l := a.locate(key)
	found := keyOf(th, l) == key
	a.end()
	return found
}

// Insert adds key, reporting whether it was absent.
func (s *set) Insert(th core.Thread, key uint64) bool {
	for {
		if done, added := s.insertOnce(th, key); done {
			return added
		}
	}
}

// insertOnce replaces the leaf by a three-node subtree through its
// parent's child slot.
func (s *set) insertOnce(th core.Thread, key uint64) (done, added bool) {
	a := s.begin(th)
	defer a.end()
	_, p, l := a.locate(key)
	lkey := keyOf(th, l)
	if lkey == key {
		return true, false
	}
	// A snapshotting step searched without holding anything: hold the leaf
	// and its parent now (the leaf has no mutable words, but the freeze/mark
	// protocol still applies to it as a dependency).
	if a.st.Snapshots() && !(a.holdLinked(p, l) && a.st.Hold(l, 0)) {
		return false, false
	}
	slot := a.slotTo(p, key, l)
	if !a.st.Ready() {
		return false, false
	}
	repl := newSubtree(th, key, lkey)
	return a.st.Commit(treeupdate.Change{Owner: p, Slot: slot, Old: l, New: repl,
		Removed: treeupdate.Nodes(l)}), true
}

// Delete removes key, reporting whether it was present.
func (s *set) Delete(th core.Thread, key uint64) bool {
	for {
		if done, removed := s.deleteOnce(th, key); done {
			return removed
		}
	}
}

// deleteOnce replaces the leaf's parent by the leaf's sibling through the
// grandparent's child slot. The commit removes the chain {p, l}: SCX
// finalizes both, IAS invalidates the tagged window {gp, p, l} at every
// other core, so any traversal or update holding them fails its next
// validation.
func (s *set) deleteOnce(th core.Thread, key uint64) (done, removed bool) {
	a := s.begin(th)
	defer a.end()
	gp, p, l := a.locate(key)
	if keyOf(th, l) != key {
		return true, false
	}
	if a.st.Snapshots() && !(a.holdLinked(gp, p) && a.holdLinked(p, l) && a.st.Hold(l, 0)) {
		return false, false
	}
	// Read the sibling through the held parent: if p is unchanged at commit,
	// this is still p's other child. (Two reads either way, as the tagged
	// delete has always issued them: the simulated machine prices each.)
	var sibling core.Addr
	if core.Addr(a.st.Mut(p, 0)) == l {
		sibling = core.Addr(a.st.Mut(p, 1))
	} else {
		sibling = core.Addr(a.st.Mut(p, 0))
	}
	gpSlot := a.slotTo(gp, key, p)
	if !a.st.Ready() {
		return false, false
	}
	return a.st.Commit(treeupdate.Change{Owner: gp, Slot: gpSlot, Old: p, New: sibling,
		Removed: treeupdate.Nodes(p, l)}), true
}
