package abtree

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/reclaim"
	"repro/internal/vtags"
)

// TestFixOnReplacedAncestorRetiresNothing pins what reclamation adds to the
// cleanup contract. cleanupPass finds (gp, p, l) by an untagged descent, so
// by the time a fix step tags gp, another thread's rebalancing may have
// replaced gp with a copy that still points at p. Without a pool a fix that
// commits on the detached gp is harmless; with one it would retire p and its
// children while the copy keeps them reachable — the double retire, cyclic
// descent and lost keys TestDifferentialReclaimVTags/hoh-abtree used to show
// in about one run in eight. The fix step must notice and do nothing.
func TestFixOnReplacedAncestorRetiresNothing(t *testing.T) {
	mem := vtags.New(1<<22, 1)
	d := reclaim.NewDomainFor(mem)
	d.SetChecked(true)
	mem.SetReclaim(d)
	tr := NewHoH(mem, 2, 4)
	pool := reclaim.NewPool(d, tr.NodeWords(), reclaim.PolicyImmediate)
	tr.SetReclaim(pool)
	th := mem.Thread(0)
	for k := uint64(1); k <= 64; k++ {
		tr.Insert(th, k)
	}

	// The untagged descent to key, as cleanupPass makes it.
	const key = 33
	var path []core.Addr
	var idx []int // idx[i] is path[i+1]'s slot in path[i]
	for n := tr.sentinel; ; {
		path = append(path, n)
		nd := tr.ly.readNode(th, n)
		if nd.leaf {
			break
		}
		i := 0
		if n != tr.sentinel {
			i = childIndex(nd.keys, key)
		}
		idx = append(idx, i)
		n = nd.ptrs[i]
	}
	if len(path) < 5 {
		t.Fatalf("tree too shallow for the scenario: path of %d nodes", len(path))
	}
	last := len(path) - 1
	ggp, gp, p, l := path[last-3], path[last-2], path[last-1], path[last]
	idxGP, idxP, idxL := idx[last-3], idx[last-2], idx[last-1]

	// Another thread's rebalancing replaces gp by a copy, as Distribute or
	// AbsorbSibling one level up does: gp is detached but still points at p.
	cp := tr.ly.writeNodeAt(th, pool.Alloc(th), tr.ly.readNode(th, gp))
	th.Store(tr.ly.ptrAddr(ggp, idxGP), uint64(cp))

	before, keys := pool.Stats().Retired, tr.Keys(th)
	tr.enter(th)
	tr.fixDegree(th, key, gp, p, l, idxP, idxL, nil)
	tr.fixFlag(th, key, gp, p, l, idxP, idxL, nil)
	tr.leave(th)
	if got := pool.Stats().Retired; got != before {
		t.Fatalf("a fix on a replaced ancestor retired %d nodes still reachable through its copy", got-before)
	}
	if got := tr.Keys(th); !slices.Equal(got, keys) {
		t.Fatalf("keys changed: %v, was %v", got, keys)
	}
	if err := CheckInvariants(th, tr); err != nil {
		t.Fatal(err)
	}

	// With gp's copy as the ancestor the same step is legitimate and commits.
	tr.enter(th)
	tr.fixDegree(th, key, cp, p, l, idxP, idxL, nil)
	tr.leave(th)
	if got := pool.Stats().Retired; got != before+3 {
		t.Fatalf("fix under the live ancestor retired %d nodes, want 3 (p and both siblings)", got-before)
	}
	if got := tr.Keys(th); !slices.Equal(got, keys) {
		t.Fatalf("keys changed by the committed fix: %v, was %v", got, keys)
	}
	if err := d.Violation(); err != nil {
		t.Fatal(err)
	}
}
