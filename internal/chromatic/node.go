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
// internal/abtree and internal/bst. The tree is bst's leaf-oriented base
// (bst.Tree: node layout, sentinels, descent, lookup, enumeration and the
// shape check) plus a weight word; the updates and every rebalancing rule
// are written once (tree.go) against treeupdate.Step, and the two flavours
// are the two steps.
package chromatic

import (
	"repro/internal/bst"
	"repro/internal/core"
	"repro/internal/treeupdate"
)

// Node layout: bst's, with the weight appended.
const (
	fWeight   = bst.NodeWords
	nodeWords = bst.NodeWords + 1
	nodeBytes = nodeWords * core.WordSize
)

// nodeC is an in-Go copy of a node used by the planning rules. Its
// children are indexed by side, 0 left and 1 right, so a rule written for
// one side is its own mirror with d and 1-d exchanged.
type nodeC struct {
	leaf bool
	w    uint64
	key  uint64
	kid  [2]core.Addr // internal only
}

// side returns the slot of nd holding child: 0 if it is the left child,
// else 1, so kid[1-side] is the left child whenever child is in neither.
func (nd nodeC) side(child core.Addr) int {
	if nd.kid[0] == child {
		return 0
	}
	return 1
}

// writeSentinel writes one of bst's sentinel nodes (S1(Inf2) -> S2(Inf1)
// -> real subtree) at weight 1; they are never rebalanced.
func writeSentinel(th core.Thread, leaf bool, key uint64, left, right core.Addr) core.Addr {
	return writeNode(th, nodeC{leaf: leaf, w: 1, key: key, kid: [2]core.Addr{left, right}})
}

// writeNode materializes nd in simulated memory.
func writeNode(th core.Thread, nd nodeC) core.Addr {
	n := bst.WriteNode(th, nodeWords, nd.leaf, nd.key, nd.kid[0], nd.kid[1])
	th.Store(n.Plus(fWeight), nd.w)
	return n
}

func weightOf(th core.Thread, n core.Addr) uint64 { return th.Load(n.Plus(fWeight)) }

// readNode loads a full copy (children only meaningful while quiescent or
// as a hint; leaf/weight/key are immutable).
func readNode(th core.Thread, n core.Addr) nodeC { return readHeld(th, n, nil) }

// readHeld is readNode for a node held by st: the two children come from
// the step (an LLX snapshot, or loads under the tag), so they are consistent
// if the step commits. A nil st loads them plainly.
func readHeld(th core.Thread, n core.Addr, st treeupdate.Step) nodeC {
	nd := nodeC{leaf: bst.IsLeaf(th, n), w: weightOf(th, n), key: bst.KeyOf(th, n)}
	switch {
	case nd.leaf:
	case st != nil:
		for d := range nd.kid {
			nd.kid[d] = core.Addr(st.Mut(n, d))
		}
	default:
		for d := range nd.kid {
			nd.kid[d] = core.Addr(th.Load(n.Plus(bst.FLeft + d)))
		}
	}
	return nd
}
