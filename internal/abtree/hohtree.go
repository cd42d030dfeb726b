package abtree

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/reclaim"
)

// HoHTree is the paper's hand-over-hand-tagged (a,b)-tree (Algorithms 3-5):
// searches tag a sliding window of the last three ancestors (untagging the
// great-grandparent as they descend), and every structural change is one
// invalidate-and-swap. The IAS validates the window, invalidates the
// replaced nodes at every other core (the transient marking that simulates
// SCX's finalizing), and swings a single child pointer.
//
// The window size of three follows the paper's observation that no
// (a,b)-tree operation atomically removes a chain of more than two nodes:
// for a node to be deleted, a pointer must change in its parent or
// grandparent, so a traversal holding valid tags on a node's two nearest
// tagged ancestors would have been invalidated by any such deletion.
type HoHTree struct {
	ly       layout
	mem      core.Memory
	sentinel core.Addr
	pool     *reclaim.Pool
}

var _ intset.Set = (*HoHTree)(nil)

// NewHoH creates an empty tree with parameters a, b (b >= 2a-1).
func NewHoH(mem core.Memory, a, b int) *HoHTree {
	ly := layout{a: a, b: b}
	ly.check()
	// The HoH window holds up to four nodes at once (gp, p, l and the next
	// node during extension; likewise gp, p and two siblings during
	// rebalancing). Below that budget the fast path can never validate.
	linesPerNode := (ly.nodeBytes() + core.LineSize - 1) / core.LineSize
	if need := 4 * linesPerNode; mem.MaxTags() < need {
		panic(fmt.Sprintf("abtree: MaxTags %d below the HoH tagging window (%d lines)", mem.MaxTags(), need))
	}
	th := mem.Thread(0)
	leaf := ly.writeNode(th, nodeData{leaf: true})
	sentinel := ly.writeNode(th, nodeData{ptrs: []core.Addr{leaf}})
	return &HoHTree{ly: ly, mem: mem, sentinel: sentinel}
}

// SetReclaim wires a reclamation pool (object size nodeWords). Every
// structural change replaces nodes through tag-validated IAS, and the IAS
// invalidates the whole tagged window at every other core, so the thread
// whose IAS detaches a node is its provably-unique retirer. Nodes built
// before the pool existed are adopted so their eventual replacement can
// retire them. Must not be combined with the Elided slow path: LLX/SCX
// helpers traverse finalized nodes without tag validation. Only call while
// quiescent, before operations.
// NodeWords returns the reclamation pool object size for SetReclaim
// (nodes of this tree's branching factor).
func (t *HoHTree) NodeWords() int { return t.ly.nodeWords() }

func (t *HoHTree) SetReclaim(p *reclaim.Pool) {
	t.pool = p
	// Adopt every current node except the sentinel (which is never
	// replaced, hence never retired).
	th := t.mem.Thread(0)
	_, _, kc := t.ly.readMeta(th, t.sentinel)
	for i := 0; i <= kc; i++ {
		t.adopt(th, core.Addr(th.Load(t.ly.ptrAddr(t.sentinel, i))))
	}
}

func (t *HoHTree) adopt(th core.Thread, n core.Addr) {
	t.pool.Adopt(n)
	leaf, _, kc := t.ly.readMeta(th, n)
	if leaf {
		return
	}
	for i := 0; i <= kc; i++ {
		t.adopt(th, core.Addr(th.Load(t.ly.ptrAddr(n, i))))
	}
}

func (t *HoHTree) enter(th core.Thread) {
	if t.pool != nil {
		t.pool.Enter(th)
	}
}

func (t *HoHTree) leave(th core.Thread) {
	if t.pool != nil {
		t.pool.Exit(th)
	}
}

// newNode writes a node through the pool when one is wired (recycled nodes
// are fully re-initialised up to the counts in the new meta word; stale
// words beyond them are never indexed), otherwise fresh from the arena.
func (t *HoHTree) newNode(th core.Thread, nd nodeData) core.Addr {
	if t.pool == nil {
		return t.ly.writeNode(th, nd)
	}
	return t.ly.writeNodeAt(th, t.pool.Alloc(th), nd)
}

// retireNode hands a node detached by this thread's IAS to the pool (no-op
// without one). Call after ClearTagSet.
func (t *HoHTree) retireNode(th core.Thread, n core.Addr) {
	if t.pool != nil {
		t.pool.Retire(th, n)
	}
}

// freeFresh returns never-published replacement nodes to the pool after a
// failed IAS (no-op without one).
func (t *HoHTree) freeFresh(th core.Thread, ns ...core.Addr) {
	if t.pool == nil {
		return
	}
	for _, n := range ns {
		if !n.IsNil() {
			t.pool.FreePrivate(th, n)
		}
	}
}

// locate is Algorithm 3's LOCATE: a hand-over-hand tagged descent. On
// return gp, p and l are tagged (gp may be NilAddr in shallow trees) and
// were all in the tree at the last successful validation; the caller must
// eventually ClearTagSet. idxP is p's slot in gp, idxL is l's slot in p.
func (t *HoHTree) locate(th core.Thread, key uint64) (gp, p, l core.Addr, idxP, idxL int) {
	gp, p, l, idxP, idxL, _ = t.locateBounded(th, key, -1)
	return gp, p, l, idxP, idxL
}

// locateBounded is locate with a restart budget: after budget failed
// validations it gives up (ok=false, tag set cleared) so a fallback path
// can take over — without a bound, a tagged descent whose window exceeds
// the L1 capacity restarts forever (tags are advisory; progress needs the
// slow path). budget < 0 means unbounded.
func (t *HoHTree) locateBounded(th core.Thread, key uint64, budget int) (gp, p, l core.Addr, idxP, idxL int, ok bool) {
	nb := t.ly.nodeBytes()
	for restarts := 0; budget < 0 || restarts <= budget; restarts++ {
		th.ClearTagSet()
		gp, p = core.NilAddr, core.NilAddr
		idxP, idxL = -1, -1
		l = t.sentinel
		th.AddTag(l, nb)
		if !th.Validate() {
			continue
		}
		restart := false
		for {
			leaf, _, kc := t.ly.readMeta(th, l)
			if leaf {
				return gp, p, l, idxP, idxL, true
			}
			keys := make([]uint64, kc)
			for i := range keys {
				keys[i] = th.Load(t.ly.keyAddr(l, i))
			}
			i := childIndex(keys, key)
			next := core.Addr(th.Load(t.ly.ptrAddr(l, i)))
			th.AddTag(next, nb)
			// Validate with the window extended: l was unchanged since the
			// last validation (when it was in the tree), so next — read
			// from l's pointer array after l was tagged — was l's child
			// then, hence in the tree. Only now may the oldest tag go.
			if !th.Validate() {
				restart = true
				break
			}
			if !gp.IsNil() {
				th.RemoveTag(gp, nb)
			}
			gp, idxP = p, idxL
			p, idxL = l, i
			l = next
		}
		if restart {
			continue
		}
	}
	th.ClearTagSet()
	return core.NilAddr, core.NilAddr, core.NilAddr, -1, -1, false
}

// Contains reports whether key is present, linearized at locate's last
// successful validation.
func (t *HoHTree) Contains(th core.Thread, key uint64) bool {
	t.enter(th)
	defer t.leave(th)
	_, _, l, _, _ := t.locate(th, key)
	_, _, kc := t.ly.readMeta(th, l)
	found := false
	for i := 0; i < kc; i++ {
		if th.Load(t.ly.keyAddr(l, i)) == key {
			found = true
			break
		}
	}
	th.ClearTagSet()
	return found
}

// Insert adds key, reporting whether it was absent (Algorithm 3).
func (t *HoHTree) Insert(th core.Thread, key uint64) bool {
	for {
		done, result, needCleanup := t.insertOnce(th, key, nil)
		if done {
			if needCleanup {
				t.cleanup(th, key)
			}
			return result
		}
	}
}

// insertOnce performs one tagged insert attempt. guard, if non-nil, runs
// after the window is tagged and may join extra lines (a fallback Mode
// line) to the commit's tag set; a false return fails the attempt.
// done=false means the attempt must be retried or abandoned to a slow
// path; needCleanup reports that the committed change created a balance
// violation the caller must clean up.
func (t *HoHTree) insertOnce(th core.Thread, key uint64, guard func() bool) (done, result, needCleanup bool) {
	t.enter(th)
	defer t.leave(th)
	p, l, idxL, ok := t.locateForUpdate(th, key, guard)
	if !ok {
		return false, false, false
	}
	ld := t.ly.readNode(th, l) // tagged: consistent if the IAS commits
	if leafContains(ld.keys, key) {
		th.ClearTagSet()
		return true, false, false
	}
	if guard != nil && !guard() {
		th.ClearTagSet()
		return false, false, false
	}
	var repl, splitL, splitR core.Addr
	overflow := len(ld.keys) >= t.ly.b
	if !overflow {
		repl = t.newNode(th, planLeafInsert(ld, key))
	} else {
		top, left, right := planLeafSplit(ld, key, p == t.sentinel)
		splitL = t.newNode(th, left)
		splitR = t.newNode(th, right)
		top.ptrs[0] = splitL
		top.ptrs[1] = splitR
		repl = t.newNode(th, top)
	}
	// IAS: validates {gp, p, l} (and any guard lines), invalidates them at
	// other cores (transiently marking the replaced leaf), swings p's
	// child slot.
	if th.IAS(t.ly.ptrAddr(p, idxL), uint64(repl)) {
		th.ClearTagSet()
		t.retireNode(th, l)
		return true, true, overflow
	}
	th.ClearTagSet()
	t.freeFresh(th, repl, splitL, splitR)
	return false, false, false
}

// Delete removes key, reporting whether it was present.
func (t *HoHTree) Delete(th core.Thread, key uint64) bool {
	for {
		done, result, needCleanup := t.deleteOnce(th, key, nil)
		if done {
			if needCleanup {
				t.cleanup(th, key)
			}
			return result
		}
	}
}

// deleteOnce performs one tagged delete attempt; see insertOnce for the
// guard contract.
func (t *HoHTree) deleteOnce(th core.Thread, key uint64, guard func() bool) (done, result, needCleanup bool) {
	t.enter(th)
	defer t.leave(th)
	p, l, idxL, ok := t.locateForUpdate(th, key, guard)
	if !ok {
		return false, false, false
	}
	ld := t.ly.readNode(th, l)
	if !leafContains(ld.keys, key) {
		th.ClearTagSet()
		return true, false, false
	}
	if guard != nil && !guard() {
		th.ClearTagSet()
		return false, false, false
	}
	nd := planLeafDelete(ld, key)
	repl := t.newNode(th, nd)
	if th.IAS(t.ly.ptrAddr(p, idxL), uint64(repl)) {
		th.ClearTagSet()
		t.retireNode(th, l)
		return true, true, len(nd.keys) < t.ly.a && p != t.sentinel
	}
	th.ClearTagSet()
	t.freeFresh(th, repl)
	return false, false, false
}

// locateRestartBudget bounds the tagged descent of a guarded (fallback-
// capable) attempt; unguarded operations search unboundedly, as in the
// paper's standalone algorithm.
const locateRestartBudget = 8

// locateForUpdate performs the descent for insertOnce/deleteOnce: bounded
// when a guard (fallback path) exists, unbounded otherwise.
func (t *HoHTree) locateForUpdate(th core.Thread, key uint64, guard func() bool) (p, l core.Addr, idxL int, ok bool) {
	budget := -1
	if guard != nil {
		budget = locateRestartBudget
	}
	_, p, l, _, idxL, ok = t.locateBounded(th, key, budget)
	return p, l, idxL, ok
}

// cleanup is Algorithm 5: repeatedly search toward key with a plain
// (untagged) descent, fixing the topmost violation found, until the path is
// clean. Fix steps tag the involved nodes only once they are needed
// (Algorithm 4); a fix that races with a concurrent restructure either
// fails its IAS or lands harmlessly on an already-unreachable node, and the
// violation is rediscovered by the next pass.
func (t *HoHTree) cleanup(th core.Thread, key uint64) {
	for {
		if t.cleanupPass(th, key, nil) {
			return
		}
	}
}

// cleanupPass walks the path to key; it returns true if the path was
// clean, false after attempting (successfully or not) to fix one
// violation. guard follows the insertOnce contract and is threaded into
// the fix steps' commits.
func (t *HoHTree) cleanupPass(th core.Thread, key uint64, guard func() bool) bool {
	t.enter(th)
	defer t.leave(th)
	gp, p := core.NilAddr, core.NilAddr
	l := t.sentinel
	idxP, idxL := -1, -1
	for {
		leaf, flagged, kc := t.ly.readMeta(th, l)
		if l != t.sentinel {
			if flagged {
				t.fixFlag(th, key, gp, p, l, idxP, idxL, guard)
				return false
			}
			deg := kc
			if !leaf {
				deg = kc + 1
			}
			if deg < t.ly.a {
				if p == t.sentinel {
					if !leaf && deg == 1 {
						t.fixRootAbsorb(th, p, l, guard)
						return false
					}
				} else {
					t.fixDegree(th, key, gp, p, l, idxP, idxL, guard)
					return false
				}
			}
		}
		if leaf {
			return true
		}
		keys := make([]uint64, kc)
		for i := range keys {
			keys[i] = th.Load(t.ly.keyAddr(l, i))
		}
		i := childIndex(keys, key)
		child := core.Addr(th.Load(t.ly.ptrAddr(l, i)))
		gp, idxP = p, idxL
		p, idxL = l, i
		l = child
	}
}

// tagAndCheckChild tags parent (if not yet tagged by the caller), then
// verifies parent's child slot still holds child. Reads happen after the
// tag, so if the check passes and the final IAS validates, the link held at
// commit time.
func (t *HoHTree) checkChild(th core.Thread, parent core.Addr, idx int, child core.Addr) bool {
	return core.Addr(th.Load(t.ly.ptrAddr(parent, idx))) == child
}

// tagAncestor tags gp, the node whose child slot a fix step will swing,
// reporting false if the step must be abandoned. cleanupPass found gp by an
// untagged descent, so gp may already have been replaced by a copy that
// still points at p. Without a pool a fix that lands on such a gp is
// harmless. With one it is not: the fix would retire p and its children
// while they are reachable through the copy. So with a pool gp is reached by
// a tagged hand-over-hand descent toward key instead: gp was then in the tree
// when tagged, every IAS bumps each node it detaches, and the fix's own IAS
// validates gp — hence gp is still in the tree when the fix commits. On
// success gp is the only line left tagged.
func (t *HoHTree) tagAncestor(th core.Thread, key uint64, gp core.Addr) bool {
	nb := t.ly.nodeBytes()
	if t.pool == nil || gp == t.sentinel {
		th.AddTag(gp, nb)
		return true
	}
	prev, cur := core.NilAddr, t.sentinel
	th.AddTag(cur, nb)
	for {
		if !th.Validate() {
			return false
		}
		if !prev.IsNil() {
			th.RemoveTag(prev, nb)
		}
		if cur == gp {
			return true
		}
		leaf, _, kc := t.ly.readMeta(th, cur)
		if leaf {
			return false
		}
		keys := make([]uint64, kc)
		for i := range keys {
			keys[i] = th.Load(t.ly.keyAddr(cur, i))
		}
		next := core.Addr(th.Load(t.ly.ptrAddr(cur, childIndex(keys, key))))
		th.AddTag(next, nb)
		prev, cur = cur, next
	}
}

// fixFlag is the tagged version of RootUntag / AbsorbChild / PropagateFlag.
func (t *HoHTree) fixFlag(th core.Thread, key uint64, gp, p, l core.Addr, idxP, idxL int, guard func() bool) {
	nb := t.ly.nodeBytes()
	defer th.ClearTagSet()
	if p == t.sentinel {
		// RootUntag.
		th.AddTag(p, nb)
		if !t.checkChild(th, p, 0, l) {
			return
		}
		th.AddTag(l, nb)
		ld := t.ly.readNode(th, l)
		if !ld.flagged || !th.Validate() {
			return
		}
		if guard != nil && !guard() {
			return
		}
		repl := t.newNode(th, planRootUntag(ld))
		if th.IAS(t.ly.ptrAddr(p, 0), uint64(repl)) {
			th.ClearTagSet()
			t.retireNode(th, l)
		} else {
			th.ClearTagSet()
			t.freeFresh(th, repl)
		}
		return
	}
	if !t.tagAncestor(th, key, gp) || !t.checkChild(th, gp, idxP, p) {
		return
	}
	th.AddTag(p, nb)
	if !t.checkChild(th, p, idxL, l) {
		return
	}
	th.AddTag(l, nb)
	pd := t.ly.readNode(th, p)
	ld := t.ly.readNode(th, l)
	if !ld.flagged || idxL >= len(pd.ptrs) || pd.ptrs[idxL] != l || !th.Validate() {
		return
	}
	if guard != nil && !guard() {
		return
	}
	var repl, splitL, splitR core.Addr
	if pd.degree()-1+ld.degree() <= t.ly.b {
		nd := planAbsorbChild(pd, ld, idxL)
		assertDegree(t.ly, nd, "AbsorbChild")
		repl = t.newNode(th, nd)
	} else {
		top, left, right := planPropagateFlag(pd, ld, idxL, gp == t.sentinel)
		splitL = t.newNode(th, left)
		splitR = t.newNode(th, right)
		top.ptrs[0] = splitL
		top.ptrs[1] = splitR
		repl = t.newNode(th, top)
	}
	// Both shapes detach p and l (repl subsumes them under gp).
	if th.IAS(t.ly.ptrAddr(gp, idxP), uint64(repl)) {
		th.ClearTagSet()
		t.retireNode(th, p)
		t.retireNode(th, l)
	} else {
		th.ClearTagSet()
		t.freeFresh(th, repl, splitL, splitR)
	}
}

// fixRootAbsorb is the tagged RootAbsorb: an internal root with one child
// is replaced by that child.
func (t *HoHTree) fixRootAbsorb(th core.Thread, p, l core.Addr, guard func() bool) {
	nb := t.ly.nodeBytes()
	defer th.ClearTagSet()
	th.AddTag(p, nb)
	if !t.checkChild(th, p, 0, l) {
		return
	}
	th.AddTag(l, nb)
	ld := t.ly.readNode(th, l)
	if ld.leaf || ld.flagged || len(ld.ptrs) != 1 || !th.Validate() {
		return
	}
	if guard != nil && !guard() {
		return
	}
	// RootAbsorb creates no nodes: the root slot swings from l straight to
	// l's only child, detaching l.
	if th.IAS(t.ly.ptrAddr(p, 0), uint64(ld.ptrs[0])) {
		th.ClearTagSet()
		t.retireNode(th, l)
	}
}

// fixDegree is the tagged AbsorbSibling / Distribute (Algorithm 4). Nodes
// gp, p, l were found by the untagged cleanup search and are tagged only
// here; the explicit pointer re-checks after tagging plus the IAS
// validation give the same protection the LLX/SCX version gets from
// finalized-node detection.
func (t *HoHTree) fixDegree(th core.Thread, key uint64, gp, p, l core.Addr, idxP, idxL int, guard func() bool) {
	nb := t.ly.nodeBytes()
	defer th.ClearTagSet()
	if !t.tagAncestor(th, key, gp) || !t.checkChild(th, gp, idxP, p) {
		return
	}
	th.AddTag(p, nb)
	pd := t.ly.readNode(th, p)
	if idxL >= len(pd.ptrs) || pd.ptrs[idxL] != l || len(pd.ptrs) < 2 {
		return
	}
	si := idxL + 1
	if idxL > 0 {
		si = idxL - 1
	}
	s := pd.ptrs[si]
	_, sFlagged, _ := t.ly.readMeta(th, s)
	if sFlagged {
		// Clear our partial tag set before fixing the sibling's flag.
		th.ClearTagSet()
		t.fixFlag(th, key, gp, p, s, idxP, si, guard)
		return
	}
	leftIdx := idxL
	if si < idxL {
		leftIdx = si
	}
	left, right := pd.ptrs[leftIdx], pd.ptrs[leftIdx+1]
	th.AddTag(left, nb)
	th.AddTag(right, nb)
	leftD := t.ly.readNode(th, left)
	rightD := t.ly.readNode(th, right)
	if leftD.leaf != rightD.leaf || !th.Validate() {
		return
	}
	if guard != nil && !guard() {
		return
	}
	var repl, freshA, freshB core.Addr
	if leftD.degree()+rightD.degree() <= t.ly.b {
		pNew, merged := planAbsorbSibling(pd, leftD, rightD, leftIdx)
		assertDegree(t.ly, merged, "AbsorbSibling")
		freshA = t.newNode(th, merged)
		pNew.ptrs[leftIdx] = freshA
		repl = t.newNode(th, pNew)
	} else {
		pNew, nl, nr := planDistribute(pd, leftD, rightD, leftIdx)
		assertDegree(t.ly, nl, "Distribute")
		assertDegree(t.ly, nr, "Distribute")
		freshA = t.newNode(th, nl)
		freshB = t.newNode(th, nr)
		pNew.ptrs[leftIdx] = freshA
		pNew.ptrs[leftIdx+1] = freshB
		repl = t.newNode(th, pNew)
	}
	// Both shapes detach p and the two siblings (repl carries replacements).
	if th.IAS(t.ly.ptrAddr(gp, idxP), uint64(repl)) {
		th.ClearTagSet()
		t.retireNode(th, p)
		t.retireNode(th, left)
		t.retireNode(th, right)
	} else {
		th.ClearTagSet()
		t.freeFresh(th, repl, freshA, freshB)
	}
}

// Keys enumerates the set in order while quiescent.
func (t *HoHTree) Keys(th core.Thread) []uint64 {
	return collectKeys(th, t.ly, t.sentinel)
}

// Root returns the sentinel node address (for invariant checks).
func (t *HoHTree) Root() core.Addr { return t.sentinel }

// Layout returns the tree's (a,b) parameters (for invariant checks).
func (t *HoHTree) Layout() (a, b int) { return t.ly.a, t.ly.b }
