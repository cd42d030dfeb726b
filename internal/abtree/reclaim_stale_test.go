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
		leaf, _, kc := tr.ly.readMeta(th, n)
		if leaf {
			break
		}
		i, child := tr.ly.route(th, n, kc, key)
		idx = append(idx, i)
		n = child
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

	// The fix steps as cleanupPass runs them: one attempt on th's step,
	// inside the step's Begin/End bracket.
	fix := func(rule func(a *attempt)) {
		a := attempt{tree: &tr.tree, th: th, st: tr.steps.On(th)}
		a.st.Begin()
		rule(&a)
		a.st.End()
	}
	before, keys := pool.Stats().Retired, tr.Keys(th)
	fix(func(a *attempt) {
		a.fixDegree(key, gp, p, l, idxP, idxL)
		a.fixFlag(key, gp, p, l, idxP, idxL)
	})
	if got := pool.Stats().Retired; got != before {
		t.Fatalf("a fix on a replaced ancestor retired %d nodes still reachable through its copy", got-before)
	}
	if got := tr.Keys(th); !slices.Equal(got, keys) {
		t.Fatalf("keys changed: %v, was %v", got, keys)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}

	// With gp's copy as the ancestor the same step is legitimate and commits.
	fix(func(a *attempt) { a.fixDegree(key, cp, p, l, idxP, idxL) })
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
