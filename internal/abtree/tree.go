package abtree

import (
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/treeupdate"
)

// tree is the (a,b)-tree itself: one search, one update template and one
// set of rebalancing rules, all run through whichever treeupdate.Step the
// flavour supplies.
type tree struct {
	ly       layout
	mem      core.Memory
	sentinel core.Addr
}

func newTree(mem core.Memory, a, b int) tree {
	ly := layout{a: a, b: b}
	ly.check()
	th := mem.Thread(0)
	leaf := ly.writeNode(th, nodeData{leaf: true})
	return tree{ly: ly, mem: mem, sentinel: ly.writeNode(th, nodeData{ptrs: []core.Addr{leaf}})}
}

// Keys enumerates the set in order while quiescent.
func (t *tree) Keys(th core.Thread) []uint64 { return collectKeys(th, t.ly, t.sentinel) }

// set is a tree bound to one flavour's steps: the intset.Set operations of
// LLXTree and HoHTree.
type set struct {
	tree
	steps treeupdate.Steps
}

var (
	_ intset.Set     = (*set)(nil)
	_ intset.Checker = (*set)(nil)
)

// Contains reports whether key is present. Under LLX the search runs exactly
// as in a sequential (a,b)-tree (leaf contents are immutable); under tags it
// is linearized at the descent's last successful validation.
func (s *set) Contains(th core.Thread, key uint64) bool {
	found, _ := s.contains(s.steps.On(th), th, key)
	return found
}

// Insert adds key, reporting whether it was absent (Algorithm 3).
func (s *set) Insert(th core.Thread, key uint64) bool {
	return s.update(s.steps.On(th), th, key, true)
}

// Delete removes key, reporting whether it was present.
func (s *set) Delete(th core.Thread, key uint64) bool {
	return s.update(s.steps.On(th), th, key, false)
}

// attempt is one run of the template by one thread: the step that holds
// nodes and commits, and the contents of the nodes a snapshotting step has
// held so far (gp, p and two siblings at most).
type attempt struct {
	*tree
	th   core.Thread
	st   treeupdate.Step
	held [4]struct {
		n  core.Addr
		nd nodeData
	}
	k int
}

// hold takes n into the step. An LLX is the read of n as well as its
// protection, so a snapshotting step copies the node now; under tags the
// contents are loaded when a rule asks for them, after everything it needs
// is tagged.
func (a *attempt) hold(n core.Addr) bool {
	if !a.st.Hold(n, a.ly.mutWords()) {
		return false
	}
	if a.st.Snapshots() {
		a.held[a.k].n, a.held[a.k].nd = n, a.ly.readHeld(a.th, n, a.st)
		a.k++
	}
	return true
}

// node returns held node n's contents, consistent if the step commits.
func (a *attempt) node(n core.Addr) nodeData {
	for i := 0; i < a.k; i++ {
		if a.held[i].n == n {
			return a.held[i].nd
		}
	}
	return a.ly.readHeld(a.th, n, a.st)
}

// linked reports whether held parent's slot idx — the one the search came
// through — still points at child. A child pointer is installed in one slot
// once, so no other slot need be looked at.
func (a *attempt) linked(parent core.Addr, idx int, child core.Addr) bool {
	return core.Addr(a.st.Mut(parent, idx)) == child
}

func (a *attempt) abandon() {
	a.st.Abandon()
	a.k = 0
}

// newNode materializes nd in the step's storage when it has any (recycled
// nodes are fully re-initialised up to the counts in the new meta word; stale
// words beyond them are never indexed), otherwise fresh from the arena.
func (a *attempt) newNode(nd nodeData) core.Addr {
	return a.ly.writeNodeAt(a.th, a.st.Alloc(), nd)
}

// locate is Algorithm 3's LOCATE: the descent from the sentinel to the leaf
// covering key, returning the last three nodes on the path and the child
// slots it passed through (idxP = p's slot in gp, idxL = l's slot in p). gp
// is NilAddr when the leaf hangs directly off the sentinel. Under tags the
// step keeps gp, p and l held — all were in the tree at the last successful
// validation — and a failed validation restarts the descent; ok is false once
// the step's restart budget is spent.
func (a *attempt) locate(key uint64) (gp, p, l core.Addr, idxP, idxL int, ok bool) {
	for a.st.Seek(a.sentinel) {
		gp, p, l = core.NilAddr, core.NilAddr, a.sentinel
		idxP, idxL = -1, -1
		for {
			leaf, _, kc := a.ly.readMeta(a.th, l)
			if leaf {
				return gp, p, l, idxP, idxL, true
			}
			i, next := a.ly.route(a.th, l, kc, key)
			if !a.st.Down(gp, next) {
				break
			}
			gp, idxP = p, idxL
			p, idxL = l, i
			l = next
		}
	}
	return core.NilAddr, core.NilAddr, core.NilAddr, -1, -1, false
}

// contains is the lookup; ok is false if the descent ran out of restarts.
func (t *tree) contains(st treeupdate.Step, th core.Thread, key uint64) (found, ok bool) {
	a := attempt{tree: t, th: th, st: st}
	st.Begin()
	if _, _, l, _, _, located := a.locate(key); located {
		_, _, kc := t.ly.readMeta(th, l)
		for i := 0; i < kc && !found; i++ {
			found = th.Load(t.ly.keyAddr(l, i)) == key
		}
		st.Abandon()
		ok = true
	}
	st.End()
	return found, ok
}

// update runs attempts until one completes, then removes any violation it
// created.
func (t *tree) update(st treeupdate.Step, th core.Thread, key uint64, insert bool) bool {
	for {
		if done, result, needCleanup := t.updateOnce(st, th, key, insert); done {
			if needCleanup {
				t.cleanup(st, th, key)
			}
			return result
		}
	}
}

// updateOnce is one attempt at the template's update: replace the leaf
// covering key by a copy with key added or removed (or by a split, Figure
// 3b). done=false means the attempt must be retried or abandoned to a slow
// path; needCleanup reports that the committed change created a balance
// violation the caller must clean up.
func (t *tree) updateOnce(st treeupdate.Step, th core.Thread, key uint64, insert bool) (done, result, needCleanup bool) {
	a := attempt{tree: t, th: th, st: st}
	st.Begin()
	defer st.End()
	_, p, l, _, idxL, ok := a.locate(key)
	if !ok {
		return false, false, false
	}
	// A snapshotting step searched without holding anything: hold the leaf
	// and its parent now, as the template's LLX sequence.
	if st.Snapshots() && !(a.hold(p) && a.linked(p, idxL, l) && a.hold(l)) {
		a.abandon()
		return false, false, false
	}
	ld := a.node(l)
	if leafContains(ld.keys, key) == insert {
		a.abandon()
		return true, false, false
	}
	if !st.Ready() {
		a.abandon()
		return false, false, false
	}
	c := treeupdate.Change{Owner: p, Slot: t.ly.ptrAddr(p, idxL), Old: l, Removed: treeupdate.Nodes(l)}
	switch {
	case !insert:
		nd := planLeafDelete(ld, key)
		c.New = a.newNode(nd)
		needCleanup = len(nd.keys) < t.ly.a && p != t.sentinel
	case len(ld.keys) < t.ly.b:
		c.New = a.newNode(planLeafInsert(ld, key))
	default:
		top, left, right := planLeafSplit(ld, key, p == t.sentinel)
		c.New = a.subtree(&c, top, left, right)
		needCleanup = true
	}
	c.Fresh[0] = c.New
	if !st.Commit(c) {
		return false, false, false
	}
	return true, true, needCleanup
}

// subtree materializes a two-child replacement subtree, recording the
// children in c.Fresh, and returns its top.
func (a *attempt) subtree(c *treeupdate.Change, top, left, right nodeData) core.Addr {
	c.Fresh[1] = a.newNode(left)
	c.Fresh[2] = a.newNode(right)
	top.ptrs[0], top.ptrs[1] = c.Fresh[1], c.Fresh[2]
	return a.newNode(top)
}

// cleanup is Algorithm 5: repeatedly search toward key with a plain (unheld)
// descent, fixing the topmost violation found, until the path is clean. Fix
// steps hold the involved nodes only once they are needed (Algorithm 4); a
// fix that races with a concurrent restructure either fails its commit or
// lands harmlessly on an already-unreachable node, and the violation is
// rediscovered by the next pass.
func (t *tree) cleanup(st treeupdate.Step, th core.Thread, key uint64) {
	for !t.cleanupPass(st, th, key) {
	}
}

// cleanupPass walks the path to key; it returns true if the path was clean,
// false after attempting (successfully or not) to fix one violation.
func (t *tree) cleanupPass(st treeupdate.Step, th core.Thread, key uint64) bool {
	a := attempt{tree: t, th: th, st: st}
	st.Begin()
	defer st.End()
	gp, p, l := core.NilAddr, core.NilAddr, t.sentinel
	idxP, idxL := -1, -1
	for {
		leaf, flagged, kc := t.ly.readMeta(th, l)
		if l != t.sentinel {
			if flagged {
				a.fixFlag(key, gp, p, l, idxP, idxL)
				return false
			}
			deg := kc
			if !leaf {
				deg = kc + 1
			}
			if deg < t.ly.a {
				if p == t.sentinel {
					// Root degree rules: only an internal root with a
					// single child is a violation (RootAbsorb).
					if !leaf && deg == 1 {
						a.fixRootAbsorb(p, l)
						return false
					}
				} else {
					a.fixDegree(key, gp, p, l, idxP, idxL)
					return false
				}
			}
		}
		if leaf {
			return true
		}
		i, child := t.ly.route(th, l, kc, key)
		gp, idxP = p, idxL
		p, idxL = l, i
		l = child
	}
}

// holdAncestor holds gp, the node whose child slot a fix step will swing,
// reporting false if the step must be abandoned. cleanupPass found gp by an
// unheld descent, so gp may already have been replaced by a copy that still
// points at p. A fix that lands on such a gp is harmless unless removed nodes
// are recycled: then it would retire p and its children while they are
// reachable through the copy. So when the step reclaims, gp is reached by a
// held hand-over-hand descent toward key instead: gp was then in the tree
// when held, every commit invalidates each node it detaches, and the fix's
// own commit validates gp — hence gp is still in the tree when the fix
// commits. On success gp is the only node left held.
func (a *attempt) holdAncestor(key uint64, gp core.Addr) bool {
	if !a.st.Reclaims() || gp == a.sentinel {
		return a.hold(gp)
	}
	a.st.Hold(a.sentinel, a.ly.mutWords())
	if !a.st.Validate() {
		return false
	}
	for cur := a.sentinel; cur != gp; {
		leaf, _, kc := a.ly.readMeta(a.th, cur)
		if leaf {
			return false
		}
		_, next := a.ly.route(a.th, cur, kc, key)
		if !a.st.Down(cur, next) {
			return false
		}
		cur = next
	}
	return true
}

// fixFlag removes a flag violation at l (child idxL of p, which is child
// idxP of gp): RootUntag, AbsorbChild or PropagateFlag.
func (a *attempt) fixFlag(key uint64, gp, p, l core.Addr, idxP, idxL int) {
	defer a.abandon()
	if p == a.sentinel {
		// RootUntag.
		if !a.hold(p) || !a.linked(p, 0, l) || !a.hold(l) {
			return
		}
		ld := a.node(l)
		if !ld.flagged || !a.st.Ready() {
			return
		}
		repl := a.newNode(planRootUntag(ld))
		a.st.Commit(treeupdate.Change{Owner: p, Slot: a.ly.ptrAddr(p, 0), Old: l, New: repl,
			Removed: treeupdate.Nodes(l), Fresh: [3]core.Addr{repl}})
		return
	}
	if !a.holdAncestor(key, gp) || !a.linked(gp, idxP, p) ||
		!a.hold(p) || !a.linked(p, idxL, l) || !a.hold(l) {
		return
	}
	pd, ld := a.node(p), a.node(l)
	if !ld.flagged || idxL >= len(pd.ptrs) || pd.ptrs[idxL] != l || !a.st.Ready() {
		return
	}
	// Both shapes detach p and l (the replacement subsumes them under gp).
	c := treeupdate.Change{Owner: gp, Slot: a.ly.ptrAddr(gp, idxP), Old: p, Removed: treeupdate.Nodes(p, l)}
	if pd.degree()-1+ld.degree() <= a.ly.b {
		nd := planAbsorbChild(pd, ld, idxL)
		assertDegree(a.ly, nd, "AbsorbChild")
		c.New = a.newNode(nd)
	} else {
		top, left, right := planPropagateFlag(pd, ld, idxL, gp == a.sentinel)
		c.New = a.subtree(&c, top, left, right)
	}
	c.Fresh[0] = c.New
	a.st.Commit(c)
}

// fixRootAbsorb replaces an internal root having a single child with that
// child (RootAbsorb). It creates no nodes: the root slot swings from l
// straight to l's only child, detaching l.
func (a *attempt) fixRootAbsorb(p, l core.Addr) {
	defer a.abandon()
	if !a.hold(p) || !a.linked(p, 0, l) || !a.hold(l) {
		return
	}
	ld := a.node(l)
	if ld.leaf || ld.flagged || len(ld.ptrs) != 1 || !a.st.Ready() {
		return
	}
	a.st.Commit(treeupdate.Change{Owner: p, Slot: a.ly.ptrAddr(p, 0), Old: l, New: ld.ptrs[0],
		Removed: treeupdate.Nodes(l)})
}

// fixDegree removes a degree violation at l via AbsorbSibling or Distribute
// (Algorithm 4). If the chosen sibling carries a flag violation, that is
// fixed first so merged material never hides a flag. gp, p and l were found
// by the unheld cleanup search and are held only here; the link re-checks
// after holding plus the commit's validation are what the search's own holds
// would have given.
func (a *attempt) fixDegree(key uint64, gp, p, l core.Addr, idxP, idxL int) {
	defer a.abandon()
	if !a.holdAncestor(key, gp) || !a.linked(gp, idxP, p) || !a.hold(p) {
		return
	}
	pd := a.node(p)
	if idxL >= len(pd.ptrs) || pd.ptrs[idxL] != l || len(pd.ptrs) < 2 {
		return
	}
	// Pick the adjacent sibling; normalize to (left, right) children.
	si := idxL + 1
	if idxL > 0 {
		si = idxL - 1
	}
	s := pd.ptrs[si]
	if _, sFlagged, _ := a.ly.readMeta(a.th, s); sFlagged {
		// Let go of the partial held set before fixing the sibling's flag.
		a.abandon()
		a.fixFlag(key, gp, p, s, idxP, si)
		return
	}
	leftIdx := min(idxL, si)
	left, right := pd.ptrs[leftIdx], pd.ptrs[leftIdx+1]
	if !a.hold(left) || !a.hold(right) {
		return
	}
	leftD, rightD := a.node(left), a.node(right)
	if leftD.leaf != rightD.leaf || !a.st.Ready() {
		return
	}
	// Both shapes detach p and the two siblings (repl carries replacements).
	c := treeupdate.Change{Owner: gp, Slot: a.ly.ptrAddr(gp, idxP), Old: p, Removed: treeupdate.Nodes(p, left, right)}
	pNew, nl, nr := nodeData{}, nodeData{}, nodeData{}
	if leftD.degree()+rightD.degree() <= a.ly.b {
		pNew, nl = planAbsorbSibling(pd, leftD, rightD, leftIdx)
		assertDegree(a.ly, nl, "AbsorbSibling")
		c.Fresh[1] = a.newNode(nl)
	} else {
		pNew, nl, nr = planDistribute(pd, leftD, rightD, leftIdx)
		assertDegree(a.ly, nl, "Distribute")
		assertDegree(a.ly, nr, "Distribute")
		c.Fresh[1] = a.newNode(nl)
		c.Fresh[2] = a.newNode(nr)
		pNew.ptrs[leftIdx+1] = c.Fresh[2]
	}
	pNew.ptrs[leftIdx] = c.Fresh[1]
	c.New = a.newNode(pNew)
	c.Fresh[0] = c.New
	a.st.Commit(c)
}
