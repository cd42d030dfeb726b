package abtree

import (
	"fmt"

	"repro/internal/core"
)

// collectKeys walks the tree from the sentinel while quiescent, returning
// all leaf keys in ascending order.
func collectKeys(th core.Thread, ly layout, sentinel core.Addr) []uint64 {
	var out []uint64
	var walk func(n core.Addr)
	walk = func(n core.Addr) {
		nd := ly.readNode(th, n)
		if nd.leaf {
			out = append(out, nd.keys...)
			return
		}
		for _, c := range nd.ptrs {
			walk(c)
		}
	}
	root := core.Addr(th.Load(ly.ptrAddr(sentinel, 0)))
	walk(root)
	return out
}

// CheckInvariants validates the structural invariants of a quiescent tree
// (intset.Checker):
//
//   - keys strictly sorted within and across leaves, and consistent with
//     router keys (every key in subtree i of a node lies in
//     [keys[i-1], keys[i]));
//   - no node exceeds degree b; no non-root node is below degree a
//     (violation-free, since all operations have completed their cleanup);
//   - no flagged nodes remain;
//   - all leaves are at the same depth.
//
// It returns an error describing the first violation found.
func (t *tree) CheckInvariants(th core.Thread) error {
	ly, a, b := t.ly, t.ly.a, t.ly.b
	root := core.Addr(th.Load(ly.ptrAddr(t.sentinel, 0)))

	leafDepth := -1
	var lastKey uint64
	haveLast := false

	var walk func(n core.Addr, depth int, lo, hi uint64, isRoot bool) error
	walk = func(n core.Addr, depth int, lo, hi uint64, isRoot bool) error {
		nd := ly.readNode(th, n)
		if nd.flagged {
			return fmt.Errorf("node %#x at depth %d is still flagged", uint64(n), depth)
		}
		deg := nd.degree()
		if deg > b {
			return fmt.Errorf("node %#x has degree %d > b=%d", uint64(n), deg, b)
		}
		if !isRoot && deg < a {
			return fmt.Errorf("node %#x has degree %d < a=%d", uint64(n), deg, a)
		}
		for i := 1; i < len(nd.keys); i++ {
			if nd.keys[i-1] >= nd.keys[i] {
				return fmt.Errorf("node %#x keys not strictly sorted", uint64(n))
			}
		}
		for _, k := range nd.keys {
			if k < lo || k >= hi {
				return fmt.Errorf("node %#x key %d outside router range [%d, %d)", uint64(n), k, lo, hi)
			}
		}
		if nd.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("leaf %#x at depth %d, expected %d", uint64(n), depth, leafDepth)
			}
			for _, k := range nd.keys {
				if haveLast && k <= lastKey {
					return fmt.Errorf("global key order broken at %d", k)
				}
				lastKey, haveLast = k, true
			}
			return nil
		}
		for i, c := range nd.ptrs {
			clo, chi := lo, hi
			if i > 0 {
				clo = nd.keys[i-1]
			}
			if i < len(nd.keys) {
				chi = nd.keys[i]
			}
			if err := walk(c, depth+1, clo, chi, false); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, 0, 0, ^uint64(0), true)
}
