// Package bst implements the unbalanced, leaf-oriented (external) binary
// search tree — one of the applications the paper names for general
// tagging ("lists, binary search trees, balanced search trees...") — in
// the same two flavours as the (a,b)-tree:
//
//   - LLX: the software baseline in the style of Brown's LLX/SCX external
//     BST (itself the pragmatic form of Ellen et al.'s lock-free BST):
//     an insert replaces a leaf with a three-node subtree via SCX on
//     {parent, leaf}; a delete replaces the parent with the leaf's sibling
//     via SCX on {grandparent, parent, leaf}, finalizing the removed
//     nodes.
//   - HoH: hand-over-hand tagging with a three-ancestor window and a
//     single IAS per update. A delete removes the chain {parent, leaf} —
//     two nodes, changing a pointer in the leaf's grandparent — so the
//     same window argument as the (a,b)-tree applies, and the IAS's
//     transient marking of the removed nodes preserves the reachability
//     invariant.
//
// All set keys live in leaves; internal nodes hold routing keys (left
// subtree < key <= right subtree... by convention here: left < key,
// right >= key). Nodes are immutable except the two child pointers of
// internal nodes.
//
// Tree, the leaf-oriented base (node layout, sentinels, descent, lookup,
// enumeration and the shape check), is exported: internal/chromatic is this
// tree plus weights.
package bst

import (
	"repro/internal/core"
	"repro/internal/llxscx"
	"repro/internal/treeupdate"
)

// Node layout (words). The LLX/SCX header is reserved in every node so
// both flavours are layout-identical. A tree built on Tree appends its own
// words after FRight.
const (
	fInfo   = llxscx.FInfo
	fMarked = llxscx.FMarked
	FMeta   = 2 // bit 0: leaf
	FKey    = 3
	FLeft   = 4
	FRight  = 5

	NodeWords = 6
	nodeBytes = NodeWords * core.WordSize
)

// Sentinel keys, above every legal set key (intset.KeyMax < Inf1 < Inf2).
const (
	Inf1 uint64 = ^uint64(0) - 1
	Inf2 uint64 = ^uint64(0)
)

// Tree is the leaf-oriented tree both flavours of this package and of
// internal/chromatic run on: the sentinels, the flavour's steps, and the
// descent, lookup and enumeration every such tree does alike.
type Tree struct {
	root  core.Addr // sentinel S1; S1.left = S2; the set lives under S2.left
	s2    core.Addr
	steps treeupdate.Steps
}

// NodeWriter allocates a node and fills it: meta and key, and for an
// internal node both children (WriteNode), plus whatever words the tree adds.
type NodeWriter func(th core.Thread, leaf bool, key uint64, left, right core.Addr) core.Addr

// NewTree builds the sentinel structure with write:
//
//	S1(Inf2) ── left ─→ S2(Inf1) ── left ─→ leaf(Inf1)
//	   └─ right → leaf(Inf2)        └─ right → leaf(Inf1)
//
// Every reachable leaf for a legal key has both a parent and a
// grandparent, and the sentinels are never modified except S2's left
// child pointer. The allocation order fixes every later node's address on
// the simulated machine, so each tree keeps the one its traffic was
// recorded with: the Inf2 leaf comes after S2, or before it if
// inf2LeafFirst.
func NewTree(mem core.Memory, steps treeupdate.Steps, write NodeWriter, inf2LeafFirst bool) Tree {
	th := mem.Thread(0)
	leaf := func(k uint64) core.Addr { return write(th, true, k, core.NilAddr, core.NilAddr) }
	a, b := leaf(Inf1), leaf(Inf1)
	var c core.Addr
	if inf2LeafFirst {
		c = leaf(Inf2)
	}
	s2 := write(th, false, Inf1, a, b)
	if !inf2LeafFirst {
		c = leaf(Inf2)
	}
	return Tree{root: write(th, false, Inf2, s2, c), s2: s2, steps: steps}
}

// WriteNode allocates a node of words words and fills the base layout.
func WriteNode(th core.Thread, words int, leaf bool, key uint64, left, right core.Addr) core.Addr {
	n := th.Alloc(words)
	meta := uint64(0)
	if leaf {
		meta = 1
	}
	th.Store(n.Plus(FMeta), meta)
	th.Store(n.Plus(FKey), key)
	if !leaf {
		th.Store(n.Plus(FLeft), uint64(left))
		th.Store(n.Plus(FRight), uint64(right))
	}
	return n
}

func writeNode(th core.Thread, leaf bool, key uint64, left, right core.Addr) core.Addr {
	return WriteNode(th, NodeWords, leaf, key, left, right)
}

// IsLeaf reports whether n is a leaf; KeyOf returns its key (immutable).
func IsLeaf(th core.Thread, n core.Addr) bool  { return th.Load(n.Plus(FMeta))&1 != 0 }
func KeyOf(th core.Thread, n core.Addr) uint64 { return th.Load(n.Plus(FKey)) }

// ChildSlot returns the address of the child pointer the search for key
// follows from internal node n.
func ChildSlot(th core.Thread, n core.Addr, key uint64) core.Addr {
	if key < KeyOf(th, n) {
		return n.Plus(FLeft)
	}
	return n.Plus(FRight)
}

// newSubtree builds the three-node replacement for inserting key next to a
// leaf holding lkey: a fresh internal whose routing key is the larger of
// the two, with the two leaves ordered.
func newSubtree(th core.Thread, key, lkey uint64) core.Addr {
	small, big := key, lkey
	if small > big {
		small, big = big, small
	}
	n := th.Alloc(NodeWords)
	th.Store(n.Plus(FMeta), 0)
	th.Store(n.Plus(FKey), big)
	th.Store(n.Plus(FLeft), uint64(writeNode(th, true, small, core.NilAddr, core.NilAddr)))
	th.Store(n.Plus(FRight), uint64(writeNode(th, true, big, core.NilAddr, core.NilAddr)))
	return n
}

// Root returns the top sentinel S1.
func (t *Tree) Root() core.Addr { return t.root }

// S2 returns the second sentinel, whose left child roots the set.
func (t *Tree) S2() core.Addr { return t.s2 }

// Keys enumerates the set while quiescent (keys below Inf1 only).
func (t *Tree) Keys(th core.Thread) []uint64 {
	var out []uint64
	var walk func(n core.Addr)
	walk = func(n core.Addr) {
		if IsLeaf(th, n) {
			if k := KeyOf(th, n); k < Inf1 {
				out = append(out, k)
			}
			return
		}
		walk(core.Addr(th.Load(n.Plus(FLeft))))
		walk(core.Addr(th.Load(n.Plus(FRight))))
	}
	walk(t.root)
	return out
}

// Attempt is one run of the template by one thread.
type Attempt struct {
	*Tree
	Th core.Thread
	St treeupdate.Step
}

// Begin opens an attempt by th.
func (t *Tree) Begin(th core.Thread) Attempt {
	a := Attempt{Tree: t, Th: th, St: t.steps.On(th)}
	a.St.Begin()
	return a
}

// End closes the attempt, letting go of whatever is still held.
func (a *Attempt) End() {
	a.St.Abandon()
	a.St.End()
}

// Locate descends to the leaf covering key, returning the last three nodes.
// Under tags the step keeps all three held — they were in the tree at the
// last successful validation — and restarts on a failed one. The two
// sentinel levels guarantee gp and p are valid internal nodes for every
// legal key.
func (a *Attempt) Locate(key uint64) (gp, p, l core.Addr) {
	for a.St.Seek(a.root) {
		gp, p, l = core.NilAddr, core.NilAddr, a.root
		for {
			if IsLeaf(a.Th, l) {
				return gp, p, l
			}
			next := core.Addr(a.Th.Load(ChildSlot(a.Th, l, key)))
			if !a.St.Down(gp, next) {
				break
			}
			gp, p, l = p, l, next
		}
	}
	panic("bst: unguarded descent gave up")
}

// Contains reports whether key is present: under LLX a plain sequential
// search (leaf keys are immutable), under tags linearized at Locate's last
// successful validation.
func (t *Tree) Contains(th core.Thread, key uint64) bool {
	a := t.Begin(th)
	_, _, l := a.Locate(key)
	found := KeyOf(th, l) == key
	a.End()
	return found
}
