package chromatic

import (
	"repro/internal/bst"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/treeupdate"
)

// set is bst's leaf-oriented tree bound to one flavour's steps: the two
// updates and every rebalancing rule exist once, below, and run through
// whichever treeupdate.Step the flavour supplies; the search, lookup and
// enumeration are bst.Tree's.
type set struct{ bst.Tree }

var (
	_ intset.Set     = (*set)(nil)
	_ intset.Checker = (*set)(nil)
)

// LLX is the software-baseline chromatic tree built on LLX/SCX: every
// structural step freezes its dependencies, finalizes the removed nodes
// and swings one pointer — the discipline of Brown et al.'s chromatic
// tree, applied to this package's derived rule set.
type LLX struct{ set }

// NewLLX creates an empty tree.
func NewLLX(mem core.Memory) *LLX {
	return &LLX{set{bst.NewTree(mem, treeupdate.NewLLX(mem, bst.FLeft, 2), writeSentinel, true)}}
}

// HoH is the hand-over-hand-tagged chromatic tree: tagged three-ancestor
// windows for searches, one IAS per structural step (update or
// rebalancing), transiently marking every removed node.
type HoH struct{ set }

// NewHoH creates an empty tree.
func NewHoH(mem core.Memory) *HoH {
	// Window: gp, p, l plus the next node during extension = 4 nodes;
	// rebalancing steps tag up to 5 (A1c and A1e: gp, p, x, s and a nephew).
	if mem.MaxTags() < 5 {
		panic("chromatic: MaxTags below the HoH tagging window")
	}
	return &HoH{set{bst.NewTree(mem, treeupdate.NewTagged(mem, nodeBytes, bst.FLeft, nil), writeSentinel, true)}}
}

// attempt is one run of the template by one thread: the step that holds
// nodes and commits, and the contents of the nodes a snapshotting step has
// held so far (A1c and A1e hold five: gp, p, x, s and a nephew).
type attempt struct {
	bst.Attempt
	held [5]struct {
		n  core.Addr
		nd nodeC
	}
	k int
}

func (s *set) begin(th core.Thread) attempt { return attempt{Attempt: s.Begin(th)} }

// cached returns the copy a snapshotting hold made of n, if any.
func (a *attempt) cached(n core.Addr) (nodeC, bool) {
	for i := 0; i < a.k; i++ {
		if a.held[i].n == n {
			return a.held[i].nd, true
		}
	}
	return nodeC{}, false
}

// hold takes n into the step. An LLX is the read of n as well as its
// protection, so a snapshotting step copies the node now; under tags the
// contents are loaded when a rule asks for them.
func (a *attempt) hold(n core.Addr) bool {
	if !a.St.Hold(n, 2) {
		return false
	}
	if a.St.Snapshots() {
		a.held[a.k].n, a.held[a.k].nd = n, readHeld(a.Th, n, a.St)
		a.k++
	}
	return true
}

// holdNode holds n and returns its contents.
func (a *attempt) holdNode(n core.Addr) (nodeC, bool) {
	if !a.hold(n) {
		return nodeC{}, false
	}
	return a.node(n), true
}

// holdLinked holds parent and checks its link to child; see linked.
func (a *attempt) holdLinked(parent core.Addr, key uint64, child core.Addr) (slot core.Addr, ok bool) {
	if !a.hold(parent) {
		return core.NilAddr, false
	}
	return a.linked(parent, key, child)
}

// node returns held node n's contents, consistent if the step commits.
func (a *attempt) node(n core.Addr) nodeC {
	if nd, ok := a.cached(n); ok {
		return nd
	}
	return readHeld(a.Th, n, a.St)
}

// linked reports whether held parent still points at child on the side the
// search for key takes (a child pointer is installed on one side once, so
// the other need not be looked at). A snapshot already has the router key and
// both children, so the check is free and slot stays NilAddr; under tags it
// is the router key's load and the slot's, and the slot is returned for the
// commit. See slot.
func (a *attempt) linked(parent core.Addr, key uint64, child core.Addr) (slot core.Addr, ok bool) {
	if pd, snap := a.cached(parent); snap {
		side := 1
		if key < pd.key {
			side = 0
		}
		return core.NilAddr, core.Addr(a.St.Mut(parent, side)) == child
	}
	slot = bst.ChildSlot(a.Th, parent, key)
	return slot, core.Addr(a.St.Mut(parent, int(slot-parent)/core.WordSize-bst.FLeft)) == child
}

// slot completes linked: the address of parent's child pointer toward key,
// loading the router key unless linked already did.
func (a *attempt) slot(slot, parent core.Addr, key uint64) core.Addr {
	if slot.IsNil() {
		slot = bst.ChildSlot(a.Th, parent, key)
	}
	return slot
}

func (a *attempt) abandon() {
	a.St.Abandon()
	a.k = 0
}

// Insert adds key, reporting whether it was absent, then rebalances.
func (s *set) Insert(th core.Thread, key uint64) bool {
	for {
		if done, added := s.insertOnce(th, key); done {
			if added {
				s.cleanup(th, key)
			}
			return added
		}
	}
}

func (s *set) insertOnce(th core.Thread, key uint64) (done, added bool) {
	a := s.begin(th)
	defer a.End()
	_, p, l := a.Locate(key)
	// A snapshotting step searched without holding anything: hold the leaf
	// and its parent now, as the template's LLX sequence.
	if a.St.Snapshots() {
		if _, ok := a.holdLinked(p, key, l); !ok || !a.hold(l) {
			return false, false
		}
	}
	ld := a.node(l)
	if ld.key == key {
		return true, false
	}
	if !a.St.Ready() {
		return false, false
	}
	repl := planInsert(th, ld, key)
	return a.St.Commit(treeupdate.Change{Owner: p, Slot: bst.ChildSlot(th, p, key), Old: l, New: repl,
		Removed: treeupdate.Nodes(l)}), true
}

// Delete removes key, reporting whether it was present, then rebalances.
func (s *set) Delete(th core.Thread, key uint64) bool {
	for {
		if done, removed, unbalanced := s.deleteOnce(th, key); done {
			if unbalanced {
				s.cleanup(th, key)
			}
			return removed
		}
	}
}

// deleteOnce replaces the leaf's parent by a reweighted copy of the leaf's
// sibling. The commit removes the window {p, l} plus the absorbed sibling.
func (s *set) deleteOnce(th core.Thread, key uint64) (done, removed, unbalanced bool) {
	a := s.begin(th)
	defer a.End()
	gp, p, l := a.Locate(key)
	if bst.KeyOf(th, l) != key {
		return true, false, false
	}
	late := a.St.Snapshots()
	if p == s.S2() {
		// Rotations can leave a single real leaf as the root-child;
		// deleting it empties the tree: restore the sentinel leaf.
		if late {
			if _, ok := a.holdLinked(p, key, l); !ok || !a.hold(l) {
				return false, false, false
			}
		}
		repl := writeNode(th, nodeC{leaf: true, w: 1, key: bst.Inf1})
		return a.St.Commit(treeupdate.Change{Owner: p, Slot: bst.ChildSlot(th, p, key), Old: l, New: repl,
			Removed: treeupdate.Nodes(l)}), true, false
	}
	if late {
		if _, ok := a.holdLinked(gp, key, p); !ok || !a.hold(p) {
			return false, false, false
		}
	}
	pd := a.node(p)
	// l's sibling. A snapshot can show that p no longer points at l; under
	// tags that is left to the commit's validation to catch.
	d := pd.side(l)
	if pd.kid[d] != l && late {
		return false, false, false
	}
	sAddr := pd.kid[1-d]
	// The sibling is absorbed into a reweighted copy: it is removed too, so
	// it joins the held set (and thus the commit's invalidation).
	if late && !a.hold(l) {
		return false, false, false
	}
	sd, ok := a.holdNode(sAddr)
	if !ok || !a.St.Ready() {
		return false, false, false
	}
	repl := planDelete(th, pd, sd)
	return a.St.Commit(treeupdate.Change{Owner: gp, Slot: bst.ChildSlot(th, gp, key), Old: p, New: repl,
		Removed: treeupdate.Nodes(p, l, sAddr)}), true, true
}

// cleanup repeatedly searches toward key with an unheld descent, fixing the
// topmost violation, until the path is clean (the same best-effort
// discipline as the (a,b)-tree: a fix that lands on an unreachable node is
// vacuous and the violation is rediscovered).
func (s *set) cleanup(th core.Thread, key uint64) {
	for !s.cleanupPass(th, key) {
	}
}

// cleanupPass walks the path to key, returning true if it was clean.
func (s *set) cleanupPass(th core.Thread, key uint64) bool {
	a := s.begin(th)
	defer a.End()
	ggp, gp, p := core.NilAddr, core.NilAddr, s.Root()
	x := core.Addr(th.Load(bst.ChildSlot(th, p, key))) // S2
	// Descend from S2's real child.
	ggp, gp, p, x = gp, p, x, core.Addr(th.Load(bst.ChildSlot(th, x, key)))
	for {
		w := weightOf(th, x)
		if w >= 2 {
			if p == s.S2() {
				// Renormalize the root-child's weight to 1.
				a.fixRootChild(p, x, key, false)
			} else {
				a.fixOverweight(ggp, gp, p, x, key)
			}
			return false
		}
		if w == 0 && p != s.S2() && weightOf(th, p) == 0 {
			a.fixRedRed(ggp, gp, p, x, key)
			return false
		}
		if bst.IsLeaf(th, x) {
			return true
		}
		ggp, gp, p = gp, p, x
		x = core.Addr(th.Load(bst.ChildSlot(th, x, key)))
	}
}

// fixRootChild sets the weight of x, the root-child under sentinel p, to 1:
// from overweight (renormalizing), or, with red set, from red (x's child is
// red too, so some rebalance is required, and the sentinel above cannot
// rotate).
func (a *attempt) fixRootChild(p, x core.Addr, key uint64, red bool) {
	slot, ok := a.holdLinked(p, key, x)
	if !ok {
		return
	}
	xd, ok := a.holdNode(x)
	if !ok || (red && xd.w != 0) || (!red && xd.w < 2) || !a.St.Ready() {
		return
	}
	slot = a.slot(slot, p, key)
	a.St.Commit(treeupdate.Change{Owner: p, Slot: slot, Old: x, New: planRootWeight(a.Th, xd),
		Removed: treeupdate.Nodes(x)})
}

// fixRedRed applies BLK / RB1 / RB2 for the topmost red-red at x.
func (a *attempt) fixRedRed(ggp, gp, p, x core.Addr, key uint64) {
	if gp == a.S2() {
		// A red root-child with a red child: every rule below would rewrite
		// the sentinel. Promote the root-child to weight 1 instead (a uniform
		// shift of every real path, legal at the root). The check lives here
		// because both callers reach it: the cleanup walk, and fixOverweight
		// handing over an off-path red-red under a red root-child.
		a.fixRootChild(gp, p, key, true)
		return
	}
	slot, ok := a.holdLinked(ggp, key, gp)
	if !ok {
		return
	}
	gpd, ok := a.holdNode(gp)
	d := gpd.side(p)
	if !ok || gpd.kid[d] != p {
		return
	}
	pd, ok := a.holdNode(p)
	if !ok || pd.kid[pd.side(x)] != x {
		return
	}
	if pd.w != 0 || weightOf(a.Th, x) != 0 || gpd.w < 1 {
		return // violation gone or not topmost anymore
	}
	uAddr := gpd.kid[1-d]
	c := treeupdate.Change{Owner: ggp, Slot: a.slot(slot, ggp, key), Old: gp}
	switch {
	case weightOf(a.Th, uAddr) == 0:
		// BLK: recolour; u is replaced, so hold (and invalidate) it too.
		ud, ok := a.holdNode(uAddr)
		if !ok || !a.St.Ready() {
			return
		}
		c.New, c.Removed = planBLK(a.Th, gpd, pd, ud, d), treeupdate.Nodes(gp, p, uAddr)
	case pd.side(x) == d:
		// Outside grandchild: single rotation.
		if !a.St.Ready() {
			return
		}
		c.New, c.Removed = planRB1(a.Th, gpd, pd, x, d), treeupdate.Nodes(gp, p)
	default:
		// Inside grandchild: double rotation; x is replaced (x is red, so
		// internal: every leaf weighs at least 1).
		xd, ok := a.holdNode(x)
		if !ok || !a.St.Ready() {
			return
		}
		c.New, c.Removed = planRB2(a.Th, gpd, pd, xd, d), treeupdate.Nodes(gp, p, x)
	}
	a.St.Commit(c)
}

// fixOverweight removes the overweight at x, dispatching on the sibling's
// shape so that no step creates a red-red the cleanup cannot see:
//
//	w_s >= 2, or w_s == 1 with no red child  -> A1
//	w_s == 1, near child red, far child black -> A1c
//	w_s == 1, near child black, far child red -> A1b
//	w_s == 1, both children red               -> A1e
//	s red (fix the off-path red-red first if p is red too;
//	  else rotate: near nephew black -> A2, red -> A3)
//
// s is internal whenever it weighs less than 2: a leaf weighs at least 1
// (see planInsert), and a weight-1 leaf's path sum could not equal x's,
// which is at least 2.
func (a *attempt) fixOverweight(ggp, gp, p, x core.Addr, key uint64) {
	slot, ok := a.holdLinked(gp, key, p)
	if !ok {
		return
	}
	pd, ok := a.holdNode(p)
	d := pd.side(x)
	if !ok || pd.kid[d] != x {
		return
	}
	// Tagging costs an access; a snapshot reads the weight anyway.
	if !a.St.Snapshots() && weightOf(a.Th, x) < 2 {
		return
	}
	xd, ok := a.holdNode(x)
	if !ok || xd.w < 2 {
		return
	}
	sAddr := pd.kid[1-d]
	sd, ok := a.holdNode(sAddr)
	if !ok {
		return
	}
	c := treeupdate.Change{Owner: gp, Slot: a.slot(slot, gp, key), Old: p, Removed: treeupdate.Nodes(p, x, sAddr)}
	switch {
	case sd.w >= 2:
		if !a.St.Ready() {
			return
		}
		c.New = planA1(a.Th, pd, xd, sd, d)
	case sd.w == 1:
		// Internal sibling of weight 1: inspect its near and far children.
		cAddr, dAddr := sd.kid[d], sd.kid[1-d]
		wc, wd := weightOf(a.Th, cAddr), weightOf(a.Th, dAddr)
		switch {
		case wc >= 1 && wd >= 1:
			if !a.St.Ready() {
				return
			}
			c.New = planA1(a.Th, pd, xd, sd, d)
		case wc == 0 && wd >= 1:
			cd, ok := a.holdNode(cAddr)
			if !ok || !a.St.Ready() {
				return
			}
			c.New, c.Removed[3] = planA1c(a.Th, pd, xd, sd, cd, d), cAddr
		case wc >= 1: // wd == 0
			if !a.St.Ready() {
				return
			}
			c.New = planA1b(a.Th, pd, xd, sd, d)
		default: // both red
			dd, ok := a.holdNode(dAddr)
			if !ok || !a.St.Ready() {
				return
			}
			c.New, c.Removed[3] = planA1e(a.Th, pd, xd, sd, dd, d), dAddr
		}
	default: // red sibling
		if pd.w == 0 {
			// (s, p) is an off-path red-red; rotating now would bury it.
			// Fix it first, then rediscover the overweight.
			a.abandon()
			a.fixRedRed(ggp, gp, p, sAddr, key)
			return
		}
		cAddr := sd.kid[d]
		// Both rotations keep x: it is not removed.
		if weightOf(a.Th, cAddr) >= 1 {
			if !a.St.Ready() {
				return
			}
			c.New, c.Removed = planA2(a.Th, pd, sd, x, d), treeupdate.Nodes(p, sAddr)
		} else {
			a.St.Release(x)
			cd, ok := a.holdNode(cAddr)
			if !ok || !a.St.Ready() {
				return
			}
			c.New, c.Removed = planA3(a.Th, pd, sd, cd, x, d), treeupdate.Nodes(p, sAddr, cAddr)
		}
	}
	a.St.Commit(c)
}
