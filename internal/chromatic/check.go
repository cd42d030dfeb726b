package chromatic

import (
	"fmt"

	"repro/internal/bst"
	"repro/internal/core"
)

// CheckInvariants validates a quiescent tree (intset.Checker): first bst's
// shape check (sentinels in place, leaf-oriented, no node reachable twice,
// search order), then the weights:
//
//   - the path-sum rule: every leaf of the real subtree has the same total
//     weight from the root-child down;
//   - no leaf weighs 0 (no rule makes a red leaf; see planInsert);
//   - no red-red or overweight violations remain;
//   - the height is within the red-black bound implied by the path sum.
func (s *set) CheckInvariants(th core.Thread) error {
	if err := s.Tree.CheckInvariants(th); err != nil {
		return err
	}
	rc := core.Addr(th.Load(s.S2().Plus(bst.FLeft)))

	var pathSum uint64
	havePathSum := false
	maxDepth := 0

	var walk func(n core.Addr, parentW, sum uint64, depth int) error
	walk = func(n core.Addr, parentW, sum uint64, depth int) error {
		nd := readNode(th, n)
		sum += nd.w
		if depth > maxDepth {
			maxDepth = depth
		}
		if nd.w == 0 && parentW == 0 {
			return fmt.Errorf("red-red violation at %#x (depth %d)", uint64(n), depth)
		}
		if nd.w >= 2 && depth > 0 {
			return fmt.Errorf("overweight violation at %#x (w=%d, leaf=%v, depth %d)",
				uint64(n), nd.w, nd.leaf, depth)
		}
		if nd.leaf {
			if nd.w == 0 {
				return fmt.Errorf("red leaf %#x (key %d, depth %d)", uint64(n), nd.key, depth)
			}
			if !havePathSum {
				pathSum = sum
				havePathSum = true
			} else if sum != pathSum {
				return fmt.Errorf("path-sum rule broken: leaf %#x sums to %d, expected %d",
					uint64(n), sum, pathSum)
			}
			return nil
		}
		if err := walk(nd.kid[0], nd.w, sum, depth+1); err != nil {
			return err
		}
		return walk(nd.kid[1], nd.w, sum, depth+1)
	}
	// The root-child is exempt from the weight rules (depth 0).
	if err := walk(rc, 1, 0, 0); err != nil {
		return err
	}
	// Red-black height bound: with no red-red, every other node on a path
	// weighs >= 1, so depth <= 2*pathSum + 1.
	if havePathSum && uint64(maxDepth) > 2*pathSum+2 {
		return fmt.Errorf("height %d exceeds the red-black bound for path sum %d", maxDepth, pathSum)
	}
	return nil
}
