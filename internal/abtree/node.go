// Package abtree implements the paper's relaxed (a,b)-tree (Section 5.1) in
// two synchronization flavours over simulated memory:
//
//   - LLX: the software baseline of Brown et al., where every structural
//     change is an SCX that freezes and finalizes the replaced nodes.
//   - HoH: the paper's hand-over-hand-tagged fast variant (Algorithms 3-5),
//     where searches tag a sliding window of three ancestors and every
//     structural change is a single invalidate-and-swap.
//
// The tree is leaf-oriented: all set keys live in leaves; internal nodes
// hold router keys. Balance is relaxed with two violation kinds (following
// Brown's (a,b)-tree): a *flag violation* at a flagged node (weight 0,
// created when a leaf or subtree splits) and a *degree violation* at a
// non-root node with fewer than a children/keys. Rebalancing steps
// (RootUntag, RootAbsorb, AbsorbChild, PropagateFlag, AbsorbSibling,
// Distribute) remove violations or move them up the search path; the
// invariant "all leaves have the same relaxed level" (levels not counting
// flagged ancestors) holds at every instant.
//
// Nodes are immutable except for their child-pointer array: every other
// change replaces a node with a fresh copy, exactly as in the paper. Both
// flavours share the node layout (node.go), the transformation planning
// (plan.go) and the search, update template and rebalancing rules (tree.go);
// they differ only in how a planned change is validated and committed, and
// that difference is a treeupdate.Step: LLXTree runs the template through
// treeupdate.LLX, HoHTree through treeupdate.Tagged, and Elided through
// guarded, bounded Tagged attempts and then LLX, on the same nodes.
package abtree

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/llxscx"
	"repro/internal/treeupdate"
)

// Node word layout. The first two words are the LLX/SCX header (unused by
// the HoH variant but kept so both variants are layout-identical).
const (
	fInfo   = llxscx.FInfo
	fMarked = llxscx.FMarked
	fMeta   = 2
	fKeys   = 3 // b key slots, then b child-pointer slots
)

// Meta word encoding.
const (
	metaLeaf    uint64 = 1 << 0
	metaFlagged uint64 = 1 << 1 // weight 0: a flag violation lives here
	metaCountSh        = 8
)

// layout carries the tree's (a,b) parameters and derives node geometry.
type layout struct {
	a, b int
}

func (ly layout) check() {
	if ly.a < 2 || ly.b < 2*ly.a-1 {
		panic(fmt.Sprintf("abtree: invalid parameters a=%d b=%d (need a>=2, b>=2a-1)", ly.a, ly.b))
	}
}

// nodeWords returns the node footprint in words.
func (ly layout) nodeWords() int { return fKeys + 2*ly.b }

// nodeBytes returns the node footprint in bytes (what AddTag covers).
func (ly layout) nodeBytes() int { return ly.nodeWords() * core.WordSize }

func (ly layout) keyAddr(n core.Addr, i int) core.Addr { return n.Plus(fKeys + i) }
func (ly layout) ptrAddr(n core.Addr, i int) core.Addr { return n.Plus(fKeys + ly.b + i) }

// mutOff/mutWords describe the mutable region (the child pointers) for a
// treeupdate.Step.
func (ly layout) mutOff() int   { return fKeys + ly.b }
func (ly layout) mutWords() int { return ly.b }

// nodeData is an in-Go copy of a node's contents, used to plan
// transformations before committing them to simulated memory.
type nodeData struct {
	leaf    bool
	flagged bool
	keys    []uint64
	ptrs    []core.Addr // internal: len(keys)+1 children; leaf: nil
}

// degree is the quantity bounded by [a, b]: children for internal nodes,
// keys for leaves.
func (nd *nodeData) degree() int {
	if nd.leaf {
		return len(nd.keys)
	}
	return len(nd.ptrs)
}

func packMeta(leaf, flagged bool, keyCount int) uint64 {
	m := uint64(keyCount) << metaCountSh
	if leaf {
		m |= metaLeaf
	}
	if flagged {
		m |= metaFlagged
	}
	return m
}

// readMeta decodes a node's meta word (immutable, so a plain load is always
// consistent).
func (ly layout) readMeta(th core.Thread, n core.Addr) (leaf, flagged bool, keyCount int) {
	m := th.Load(n.Plus(fMeta))
	return m&metaLeaf != 0, m&metaFlagged != 0, int(m >> metaCountSh)
}

// readNode loads a full node copy. Keys and meta are immutable; pointers
// are mutable, so the copy is only meaningful while quiescent.
func (ly layout) readNode(th core.Thread, n core.Addr) nodeData {
	return ly.readHeld(th, n, nil)
}

// readHeld is readNode for a node held by st: the child pointers come from
// the step (an LLX snapshot, or loads under the tag), so they are mutually
// consistent if the step commits. A nil st loads them plainly.
func (ly layout) readHeld(th core.Thread, n core.Addr, st treeupdate.Step) nodeData {
	leaf, flagged, kc := ly.readMeta(th, n)
	nd := nodeData{leaf: leaf, flagged: flagged, keys: make([]uint64, kc)}
	for i := 0; i < kc; i++ {
		nd.keys[i] = th.Load(ly.keyAddr(n, i))
	}
	if !leaf {
		nd.ptrs = make([]core.Addr, kc+1)
		for i := 0; i <= kc; i++ {
			if st != nil {
				nd.ptrs[i] = core.Addr(st.Mut(n, i))
			} else {
				nd.ptrs[i] = core.Addr(th.Load(ly.ptrAddr(n, i)))
			}
		}
	}
	return nd
}

// writeNode allocates and initializes a fresh node from nd.
func (ly layout) writeNode(th core.Thread, nd nodeData) core.Addr {
	return ly.writeNodeAt(th, core.NilAddr, nd)
}

// writeNodeAt initializes a node from nd at n, allocating fresh when n is
// nil. Only the meta word, len(keys) key slots and len(ptrs) pointer slots
// are written: a recycled node keeps stale words beyond those counts, but
// no reader indexes past the counts in the meta word it loaded.
func (ly layout) writeNodeAt(th core.Thread, n core.Addr, nd nodeData) core.Addr {
	if len(nd.keys) > ly.b || (!nd.leaf && len(nd.ptrs) != len(nd.keys)+1) {
		panic(fmt.Sprintf("abtree: malformed node leaf=%v keys=%d ptrs=%d b=%d",
			nd.leaf, len(nd.keys), len(nd.ptrs), ly.b))
	}
	if n.IsNil() {
		n = th.Alloc(ly.nodeWords())
	}
	th.Store(n.Plus(fMeta), packMeta(nd.leaf, nd.flagged, len(nd.keys)))
	for i, k := range nd.keys {
		th.Store(ly.keyAddr(n, i), k)
	}
	for i, p := range nd.ptrs {
		th.Store(ly.ptrAddr(n, i), uint64(p))
	}
	return n
}

// route is the one step of every descent: it loads internal node n's kc
// router keys in order, then the child pointer the search for key follows,
// and returns that child and its slot (subtree i covers keys in
// [keys[i-1], keys[i])). All kc keys are loaded even once the slot is known,
// as a search that copies the node would.
func (ly layout) route(th core.Thread, n core.Addr, kc int, key uint64) (i int, child core.Addr) {
	for j := 0; j < kc; j++ {
		if k := th.Load(ly.keyAddr(n, j)); i == j && key >= k {
			i++
		}
	}
	return i, core.Addr(th.Load(ly.ptrAddr(n, i)))
}

// leafContains reports whether a leaf's key slice contains key.
func leafContains(keys []uint64, key uint64) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

// insertSorted returns keys with key inserted in order.
func insertSorted(keys []uint64, key uint64) []uint64 {
	out := make([]uint64, 0, len(keys)+1)
	i := 0
	for i < len(keys) && keys[i] < key {
		out = append(out, keys[i])
		i++
	}
	out = append(out, key)
	out = append(out, keys[i:]...)
	return out
}

// removeKey returns keys without key.
func removeKey(keys []uint64, key uint64) []uint64 {
	out := make([]uint64, 0, len(keys))
	for _, k := range keys {
		if k != key {
			out = append(out, k)
		}
	}
	return out
}
