// Package chromatic implements the relaxed-balance chromatic tree — the
// other balanced search tree the paper names ("balanced search trees
// (chromatic trees and (a,b)-trees)") — in the same two synchronization
// flavours as the (a,b)-tree and BST: an LLX/SCX software baseline and the
// paper's hand-over-hand-tagged fast variant committing with single IAS
// operations.
//
// The tree is a leaf-oriented (external) BST in which every node carries a
// weight w ("red" = 0, "black" = 1, overweight > 1). The structural
// invariant maintained by every transformation is the *path-sum rule*: all
// leaves of the real subtree (under the root sentinel's child) have the
// same total weight along their path. Balance violations are local:
//
//   - red-red: a node with w = 0 whose parent has w = 0;
//   - overweight: a non-root-child node with w >= 2.
//
// When no violations remain, weights encode a red-black tree, so the
// height is O(log n); while violations exist the height degrades
// gracefully (by the number of violations), exactly the relaxed-balance
// property chromatic trees were designed for.
//
// The rebalancing rule set here is *derived*, not copied: each rule's
// comment shows the path-sum bookkeeping proving the invariant is
// preserved, and the test suite checks path sums, violation-freedom at
// quiescence, and key order after every stress run. The rules differ in
// inessential ways from the classical Nurmi/Soisalon-Soininen catalogue
// (the paper's transformation is orthogonal to the rule set — it only
// requires that every atomic step replaces a connected region via one
// pointer swing, removing a bounded chain of nodes).
//
// Nodes are immutable except their two child pointers; every weight or key
// change replaces nodes wholesale, and each step's removed nodes are
// finalized (LLX/SCX) or IAS-invalidated (HoH), the discipline shared with
// internal/abtree and internal/bst. The search, the updates and every
// rebalancing rule are written once (tree.go) against treeupdate.Step; the
// two flavours are the two steps.
package chromatic

import (
	"repro/internal/core"
	"repro/internal/llxscx"
	"repro/internal/treeupdate"
)

// Node layout (words). The LLX/SCX header is reserved in both flavours.
const (
	fInfo   = llxscx.FInfo
	fMarked = llxscx.FMarked
	fMeta   = 2 // bit 0: leaf
	fWeight = 3
	fKey    = 4
	fLeft   = 5
	fRight  = 6

	nodeWords = 7
	nodeBytes = nodeWords * core.WordSize
)

// Sentinel keys, above every legal set key.
const (
	inf1 uint64 = ^uint64(0) - 1
	inf2 uint64 = ^uint64(0)
)

// nodeC is an in-Go copy of a node used by the planning rules.
type nodeC struct {
	leaf  bool
	w     uint64
	key   uint64
	left  core.Addr // internal only
	right core.Addr
}

// base carries the state shared by both flavours: the same two-sentinel
// scheme as internal/bst (S1(inf2) -> S2(inf1) -> real subtree), with
// sentinels at weight 1, never rebalanced.
type base struct {
	mem  core.Memory
	root core.Addr // S1
	s2   core.Addr
}

func newBase(mem core.Memory) base {
	th := mem.Thread(0)
	b := base{mem: mem}
	leafI1a := writeNode(th, nodeC{leaf: true, w: 1, key: inf1})
	leafI1b := writeNode(th, nodeC{leaf: true, w: 1, key: inf1})
	leafI2 := writeNode(th, nodeC{leaf: true, w: 1, key: inf2})
	b.s2 = writeNode(th, nodeC{w: 1, key: inf1, left: leafI1a, right: leafI1b})
	b.root = writeNode(th, nodeC{w: 1, key: inf2, left: b.s2, right: leafI2})
	return b
}

// writeNode materializes nd in simulated memory.
func writeNode(th core.Thread, nd nodeC) core.Addr {
	n := th.Alloc(nodeWords)
	meta := uint64(0)
	if nd.leaf {
		meta = 1
	}
	th.Store(n.Plus(fMeta), meta)
	th.Store(n.Plus(fWeight), nd.w)
	th.Store(n.Plus(fKey), nd.key)
	if !nd.leaf {
		th.Store(n.Plus(fLeft), uint64(nd.left))
		th.Store(n.Plus(fRight), uint64(nd.right))
	}
	return n
}

func isLeaf(th core.Thread, n core.Addr) bool     { return th.Load(n.Plus(fMeta))&1 != 0 }
func weightOf(th core.Thread, n core.Addr) uint64 { return th.Load(n.Plus(fWeight)) }
func keyOf(th core.Thread, n core.Addr) uint64    { return th.Load(n.Plus(fKey)) }

// readNode loads a full copy (children only meaningful while quiescent or
// as a hint; leaf/weight/key are immutable).
func readNode(th core.Thread, n core.Addr) nodeC { return readHeld(th, n, nil) }

// readHeld is readNode for a node held by st: the two children come from
// the step (an LLX snapshot, or loads under the tag), so they are consistent
// if the step commits. A nil st loads them plainly.
func readHeld(th core.Thread, n core.Addr, st treeupdate.Step) nodeC {
	nd := nodeC{leaf: isLeaf(th, n), w: weightOf(th, n), key: keyOf(th, n)}
	switch {
	case nd.leaf:
	case st != nil:
		nd.left, nd.right = core.Addr(st.Mut(n, 0)), core.Addr(st.Mut(n, 1))
	default:
		nd.left = core.Addr(th.Load(n.Plus(fLeft)))
		nd.right = core.Addr(th.Load(n.Plus(fRight)))
	}
	return nd
}

// childSlot returns the child pointer slot the search for key follows.
func childSlot(th core.Thread, n core.Addr, key uint64) core.Addr {
	if key < keyOf(th, n) {
		return n.Plus(fLeft)
	}
	return n.Plus(fRight)
}

// collect enumerates the real keys while quiescent.
func (b *base) collect(th core.Thread) []uint64 {
	var out []uint64
	var walk func(n core.Addr)
	walk = func(n core.Addr) {
		if isLeaf(th, n) {
			if k := keyOf(th, n); k < inf1 {
				out = append(out, k)
			}
			return
		}
		walk(core.Addr(th.Load(n.Plus(fLeft))))
		walk(core.Addr(th.Load(n.Plus(fRight))))
	}
	walk(b.root)
	return out
}
