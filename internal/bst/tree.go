package bst

import (
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/treeupdate"
)

// set is the tree bound to one flavour's steps: the search and the two
// updates exist once, below and in Tree, and run through whichever
// treeupdate.Step the flavour supplies.
type set struct{ Tree }

var (
	_ intset.Set     = (*set)(nil)
	_ intset.Checker = (*set)(nil)
)

// LLX is the software-baseline external BST built on LLX/SCX.
type LLX struct{ set }

// NewLLX creates an empty tree.
func NewLLX(mem core.Memory) *LLX {
	return &LLX{set{NewTree(mem, treeupdate.NewLLX(mem, FLeft, 2), writeNode, false)}}
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
	return &HoH{set{NewTree(mem, treeupdate.NewTagged(mem, nodeBytes, FLeft, nil), writeNode, false)}}
}

// holdLinked holds parent by snapshot and checks it still points at child
// (from either side: the snapshot has both, and no router key is loaded).
func (a *Attempt) holdLinked(parent, child core.Addr) bool {
	return a.St.Hold(parent, 2) &&
		(core.Addr(a.St.Mut(parent, 0)) == child || core.Addr(a.St.Mut(parent, 1)) == child)
}

// slotTo returns the slot of held parent that points at child, the next node
// on the search path for key. A snapshot is compared with child; under tags
// the descent proved the link, so the router key picks the slot.
func (a *Attempt) slotTo(parent core.Addr, key uint64, child core.Addr) core.Addr {
	if !a.St.Snapshots() {
		return ChildSlot(a.Th, parent, key)
	}
	if core.Addr(a.St.Mut(parent, 0)) == child {
		return parent.Plus(FLeft)
	}
	return parent.Plus(FRight)
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
	a := s.Begin(th)
	defer a.End()
	_, p, l := a.Locate(key)
	lkey := KeyOf(th, l)
	if lkey == key {
		return true, false
	}
	// A snapshotting step searched without holding anything: hold the leaf
	// and its parent now (the leaf has no mutable words, but the freeze/mark
	// protocol still applies to it as a dependency).
	if a.St.Snapshots() && !(a.holdLinked(p, l) && a.St.Hold(l, 0)) {
		return false, false
	}
	slot := a.slotTo(p, key, l)
	if !a.St.Ready() {
		return false, false
	}
	repl := newSubtree(th, key, lkey)
	return a.St.Commit(treeupdate.Change{Owner: p, Slot: slot, Old: l, New: repl,
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
	a := s.Begin(th)
	defer a.End()
	gp, p, l := a.Locate(key)
	if KeyOf(th, l) != key {
		return true, false
	}
	if a.St.Snapshots() && !(a.holdLinked(gp, p) && a.holdLinked(p, l) && a.St.Hold(l, 0)) {
		return false, false
	}
	// Read the sibling through the held parent: if p is unchanged at commit,
	// this is still p's other child. (Two reads either way, as the tagged
	// delete has always issued them: the simulated machine prices each.)
	var sibling core.Addr
	if core.Addr(a.St.Mut(p, 0)) == l {
		sibling = core.Addr(a.St.Mut(p, 1))
	} else {
		sibling = core.Addr(a.St.Mut(p, 0))
	}
	gpSlot := a.slotTo(gp, key, p)
	if !a.St.Ready() {
		return false, false
	}
	return a.St.Commit(treeupdate.Change{Owner: gp, Slot: gpSlot, Old: p, New: sibling,
		Removed: treeupdate.Nodes(p, l)}), true
}
