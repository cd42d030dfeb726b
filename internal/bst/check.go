package bst

import (
	"fmt"

	"repro/internal/core"
)

// CheckInvariants validates a quiescent tree (intset.Checker):
//
//   - both sentinels are in place: the root is S1 (internal, key Inf2) with
//     S2 (internal, key Inf1) on its left and the Inf2 leaf on its right, and
//     S2's right child is an Inf1 leaf;
//   - the tree is leaf-oriented: every internal node has two children, every
//     path ends in a leaf, and no node is reachable twice;
//   - search order: every real leaf key (below the sentinel range) lies
//     inside the routing range a search takes to reach it (left < router,
//     right >= router), and real keys strictly increase left to right.
//     Sentinel-keyed placeholder leaves legitimately cascade down the
//     rightmost spine under S2 (as in Ellen et al.'s construction) and are
//     exempt — searches never target them.
//
// It returns an error describing the first violation found.
func (t *Tree) CheckInvariants(th core.Thread) error {
	s1 := t.root
	child := func(n core.Addr, f int) core.Addr { return core.Addr(th.Load(n.Plus(f))) }
	if IsLeaf(th, s1) || KeyOf(th, s1) != Inf2 {
		return fmt.Errorf("root %#x is not the Inf2 sentinel", uint64(s1))
	}
	s2 := child(s1, FLeft)
	if s2.IsNil() || IsLeaf(th, s2) || KeyOf(th, s2) != Inf1 {
		return fmt.Errorf("root's left child %#x is not the Inf1 sentinel", uint64(s2))
	}
	for _, c := range []struct {
		n   core.Addr
		key uint64
	}{{child(s1, FRight), Inf2}, {child(s2, FRight), Inf1}} {
		if c.n.IsNil() || !IsLeaf(th, c.n) || KeyOf(th, c.n) != c.key {
			return fmt.Errorf("sentinel leaf %#x missing or not keyed %#x", uint64(c.n), c.key)
		}
	}

	seen := map[core.Addr]bool{}
	var last uint64
	haveLast := false
	var walk func(n core.Addr, lo, hi uint64) error
	walk = func(n core.Addr, lo, hi uint64) error {
		if n.IsNil() {
			return fmt.Errorf("internal node with a nil child (range [%d, %d])", lo, hi)
		}
		if seen[n] {
			return fmt.Errorf("node %#x reachable twice", uint64(n))
		}
		seen[n] = true
		k := KeyOf(th, n)
		if IsLeaf(th, n) {
			if k >= Inf1 {
				return nil
			}
			if k < lo || k > hi {
				return fmt.Errorf("leaf key %d outside search range [%d, %d]", k, lo, hi)
			}
			if haveLast && k <= last {
				return fmt.Errorf("leaf key %d not above its predecessor %d", k, last)
			}
			last, haveLast = k, true
			return nil
		}
		if k == 0 {
			return fmt.Errorf("internal node %#x routes on key 0: nothing can be on its left", uint64(n))
		}
		if err := walk(child(n, FLeft), lo, min(hi, k-1)); err != nil {
			return err
		}
		return walk(child(n, FRight), max(lo, k), hi)
	}
	return walk(s1, 0, ^uint64(0))
}
