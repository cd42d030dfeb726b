package chromatic

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/vtags"
)

// Planner property tests: every rule must preserve the path sum to each
// reused leaf/subtree and introduce no red-red among the fresh nodes'
// immediate relations. Subtrees hanging off the transformed region are
// represented by synthetic leaves whose weights stand in for arbitrary
// subtree sums.

// mkLeaf materializes a synthetic leaf.
func mkLeaf(th core.Thread, w, key uint64) core.Addr {
	return writeNode(th, nodeC{leaf: true, w: w, key: key})
}

// pathSums walks the materialized subtree and returns key -> total weight
// below (and including) the top.
func pathSums(th core.Thread, top core.Addr) map[uint64]uint64 {
	sums := map[uint64]uint64{}
	var walk func(n core.Addr, acc uint64)
	walk = func(n core.Addr, acc uint64) {
		nd := readNode(th, n)
		acc += nd.w
		if nd.leaf {
			sums[nd.key] = acc
			return
		}
		walk(nd.kid[0], acc)
		walk(nd.kid[1], acc)
	}
	walk(top, 0)
	return sums
}

// checkNoFreshRedRed walks the materialized subtree checking that no node
// with weight 0 has a weight-0 parent (pre-existing violations are
// excluded by constructing conflict-free inputs).
func checkNoFreshRedRed(t *testing.T, th core.Thread, top core.Addr, topParentW uint64) {
	t.Helper()
	var walk func(n core.Addr, parentW uint64)
	walk = func(n core.Addr, parentW uint64) {
		nd := readNode(th, n)
		if nd.w == 0 && parentW == 0 {
			t.Fatalf("rule created red-red at key %d", nd.key)
		}
		if nd.leaf {
			return
		}
		walk(nd.kid[0], nd.w)
		walk(nd.kid[1], nd.w)
	}
	walk(top, topParentW)
}

func TestPlanInsertPathSums(t *testing.T) {
	mem := vtags.New(1<<20, 1)
	th := mem.Thread(0)
	for _, wl := range []uint64{1, 2, 5} {
		l := nodeC{leaf: true, w: wl, key: 100}
		top := planInsert(th, l, 50)
		sums := pathSums(th, top)
		if sums[50] != wl || sums[100] != wl {
			t.Fatalf("w_l=%d: sums %v, want both %d", wl, sums, wl)
		}
	}
}

func TestPlanDeletePathSums(t *testing.T) {
	mem := vtags.New(1<<20, 1)
	th := mem.Thread(0)
	p := nodeC{w: 2, key: 10}
	s := nodeC{leaf: true, w: 3, key: 7}
	top := readNode(th, planDelete(th, p, s))
	if !top.leaf || top.w != 5 || top.key != 7 {
		t.Fatalf("promoted sibling wrong: %+v", top)
	}
}

// ruleCase builds a random configuration, applies one rule, and verifies
// path sums relative to the original configuration.
func TestRotationRulesPreservePathSums(t *testing.T) {
	mem := vtags.New(64<<20, 1)
	th := mem.Thread(0)
	rng := rand.New(rand.NewSource(9))

	for iter := 0; iter < 400; iter++ {
		for d := 0; d < 2; d++ {
			// Synthetic grandparent region: gp{p, u} with p{x/c3 or x{a,b}}.
			wgp := uint64(rng.Intn(3) + 1) // >= 1 (topmost red-red)
			wu := uint64(rng.Intn(3) + 1)  // black uncle (BLK handles red)
			wc3 := uint64(rng.Intn(3) + 1) // avoid pre-existing red-reds
			wa := uint64(rng.Intn(3) + 1)
			wb := uint64(rng.Intn(3) + 1)

			u := mkLeaf(th, wu, 1000)
			c3 := mkLeaf(th, wc3, 1001)
			a := mkLeaf(th, wa, 1002)
			b := mkLeaf(th, wb, 1003)

			// BLK: gp{p(0){x(0)...}, u(0)}; we model x and c3 as p's leaves.
			x := mkLeaf(th, 0, 1004)
			pd := nodeC{w: 0, key: 11}
			pd.kid[d], pd.kid[1-d] = x, c3
			gpd := nodeC{w: wgp, key: 22}
			ud := nodeC{leaf: true, w: 0, key: 1000}
			top := planBLK(th, gpd, pd, ud, d)
			sums := pathSums(th, top)
			if sums[1004] != wgp+0+0 || sums[1001] != wgp+0+wc3 || sums[1000] != wgp+0 {
				t.Fatalf("BLK sums wrong: %v", sums)
			}

			// RB1: x outside.
			pd2 := nodeC{w: 0, key: 11}
			pd2.kid[d], pd2.kid[1-d] = x, c3
			// attach u side below via planRB1's gp fields
			gp2 := nodeC{w: wgp, key: 22}
			gp2.kid[d], gp2.kid[1-d] = core.NilAddr, u
			top = planRB1(th, gp2, pd2, x, d)
			sums = pathSums(th, top)
			if sums[1004] != wgp || sums[1001] != wgp+0+wc3 || sums[1000] != wgp+0+wu {
				t.Fatalf("RB1 sums wrong (d=%d): %v", d, sums)
			}
			checkNoFreshRedRed(t, th, top, 1)

			// RB2: x inside, internal with children a, b.
			xd := nodeC{w: 0, key: 15, kid: [2]core.Addr{a, b}}
			pd3 := nodeC{w: 0, key: 11}
			gp3 := nodeC{w: wgp, key: 22}
			xAddr := writeNode(th, xd)
			pd3.kid[d], pd3.kid[1-d] = c3, xAddr
			gp3.kid[d], gp3.kid[1-d] = writeNode(th, pd3), u
			top = planRB2(th, gp3, pd3, xd, d)
			sums = pathSums(th, top)
			if sums[1001] != wgp+wc3 || sums[1002] != wgp+wa || sums[1003] != wgp+wb || sums[1000] != wgp+wu {
				t.Fatalf("RB2 sums wrong (d=%d): %v", d, sums)
			}
			checkNoFreshRedRed(t, th, top, 1)
		}
	}
}

func TestWeightRulesPreservePathSums(t *testing.T) {
	mem := vtags.New(64<<20, 1)
	th := mem.Thread(0)
	rng := rand.New(rand.NewSource(10))

	for iter := 0; iter < 400; iter++ {
		for d := 0; d < 2; d++ {
			wp := uint64(rng.Intn(3))
			wx := uint64(rng.Intn(3) + 2) // overweight

			x := mkLeaf(th, wx, 2000)
			xd := readNode(th, x)

			// A1 with heavy sibling.
			ws := uint64(rng.Intn(3) + 2)
			sd := nodeC{leaf: true, w: ws, key: 2001}
			pd := nodeC{w: wp, key: 33}
			top := planA1(th, pd, xd, sd, d)
			sums := pathSums(th, top)
			if sums[2000] != wp+wx || sums[2001] != wp+ws {
				t.Fatalf("A1 sums wrong: %v", sums)
			}

			// A1b: s(1){c(w>=1), d(0)}.
			wc := uint64(rng.Intn(2) + 1)
			c := mkLeaf(th, wc, 2002)
			d1 := mkLeaf(th, 0, 2003)
			s1 := nodeC{w: 1, key: 44}
			s1.kid[d], s1.kid[1-d] = c, d1
			top = planA1b(th, nodeC{w: wp, key: 33}, xd, s1, d)
			sums = pathSums(th, top)
			if sums[2000] != wp+wx || sums[2002] != wp+1+wc || sums[2003] != wp+1 {
				t.Fatalf("A1b sums wrong (d=%d): %v", d, sums)
			}

			// A1c: s(1){c(0){e, f}, d(w>=1)}.
			we := uint64(rng.Intn(2) + 1)
			wf := uint64(rng.Intn(2) + 1)
			wd := uint64(rng.Intn(2) + 1)
			e := mkLeaf(th, we, 2004)
			f := mkLeaf(th, wf, 2005)
			d2 := mkLeaf(th, wd, 2006)
			cd := nodeC{w: 0, key: 40}
			cd.kid[d], cd.kid[1-d] = e, f
			s2 := nodeC{w: 1, key: 44}
			s2.kid[d], s2.kid[1-d] = writeNode(th, cd), d2
			top = planA1c(th, nodeC{w: wp, key: 33}, xd, s2, cd, d)
			sums = pathSums(th, top)
			if sums[2000] != wp+wx || sums[2004] != wp+1+we || sums[2005] != wp+1+wf || sums[2006] != wp+1+wd {
				t.Fatalf("A1c sums wrong (d=%d): %v", d, sums)
			}
			checkNoFreshRedRed(t, th, top, 1)

			// A1e: s(1){c(0), d(0)}.
			c3 := mkLeaf(th, 0, 2007)
			d3 := mkLeaf(th, 0, 2008)
			s3 := nodeC{w: 1, key: 44}
			s3.kid[d], s3.kid[1-d] = c3, d3
			dd := nodeC{leaf: true, w: 0, key: 2008}
			top = planA1e(th, nodeC{w: wp, key: 33}, xd, s3, dd, d)
			sums = pathSums(th, top)
			if sums[2000] != wp+wx || sums[2007] != wp+1 || sums[2008] != wp+1 {
				t.Fatalf("A1e sums wrong (d=%d): %v", d, sums)
			}

			// A2: s(0){c(w>=1), d}.
			c4 := mkLeaf(th, wc, 2009)
			d4 := mkLeaf(th, uint64(rng.Intn(3)), 2010)
			wd4 := readNode(th, d4).w
			s4 := nodeC{w: 0, key: 44}
			s4.kid[d], s4.kid[1-d] = c4, d4
			top = planA2(th, nodeC{w: wp + 1, key: 33}, s4, x, d)
			sums = pathSums(th, top)
			if sums[2000] != wp+1+wx || sums[2009] != wp+1+wc || sums[2010] != wp+1+wd4 {
				t.Fatalf("A2 sums wrong (d=%d): %v", d, sums)
			}

			// A3: s(0){c(0){e, f}, d}.
			e5 := mkLeaf(th, we, 2011)
			f5 := mkLeaf(th, wf, 2012)
			d5 := mkLeaf(th, wd, 2013)
			cd5 := nodeC{w: 0, key: 40}
			cd5.kid[d], cd5.kid[1-d] = e5, f5
			s5 := nodeC{w: 0, key: 44}
			s5.kid[d], s5.kid[1-d] = writeNode(th, cd5), d5
			top = planA3(th, nodeC{w: wp + 1, key: 33}, s5, cd5, x, d)
			sums = pathSums(th, top)
			if sums[2000] != wp+1+wx || sums[2011] != wp+1+we || sums[2012] != wp+1+wf || sums[2013] != wp+1+wd {
				t.Fatalf("A3 sums wrong (d=%d): %v", d, sums)
			}
		}
	}
}

// weighted builds random path-sum-consistent inputs for the planners: every
// leaf weighs at least 1, as in any tree the rules can reach (planInsert).
type weighted struct {
	th  core.Thread
	rng *rand.Rand
	key uint64
}

// sub writes a random subtree whose leaves all sum to sum (>= 1) from its
// root down. w fixes the root's weight (< 0: random); a root weighing the
// whole sum is a leaf, any other is internal.
func (g *weighted) sub(sum uint64, w int, depth int) nodeC {
	if w < 0 {
		w = int(sum)
		if depth < 3 {
			w = g.rng.Intn(int(sum) + 1)
		}
	}
	g.key++
	nd := nodeC{w: uint64(w), key: g.key}
	if nd.w >= sum {
		nd.leaf, nd.w = true, sum
		return nd
	}
	for d := range nd.kid {
		nd.kid[d] = writeNode(g.th, g.sub(sum-nd.w, -1, depth+1))
	}
	return nd
}

// addr writes a random subtree (see sub) and returns its address.
func (g *weighted) addr(sum uint64, w int) core.Addr { return writeNode(g.th, g.sub(sum, w, 1)) }

// pair orders a near and a far child: near is on side d.
func pair(nd nodeC, near, far core.Addr, d int) nodeC {
	nd.kid[d], nd.kid[1-d] = near, far
	return nd
}

// TestPlannersKeepLeavesWeighted feeds every planner random configurations
// of the shape its caller hands it, with every leaf weighing at least 1, and
// checks the replacement: no leaf weighs 0, no weight wrapped, and every
// leaf keeps the path sum it had (planRootWeight aside, which shifts all
// paths alike).
func TestPlannersKeepLeavesWeighted(t *testing.T) {
	mem := vtags.New(64<<20, 1)
	th := mem.Thread(0)
	g := &weighted{th: th, rng: rand.New(rand.NewSource(11))}
	rw := func(lo, hi int) uint64 { return uint64(lo + g.rng.Intn(hi-lo+1)) }
	check := func(rule string, top core.Addr, want uint64) {
		t.Helper()
		var walk func(n core.Addr, acc uint64)
		walk = func(n core.Addr, acc uint64) {
			nd := readNode(th, n)
			if nd.w >= 1<<32 {
				t.Fatalf("%s: weight wrapped to %d", rule, nd.w)
			}
			acc += nd.w
			if !nd.leaf {
				walk(nd.kid[0], acc)
				walk(nd.kid[1], acc)
				return
			}
			if nd.w == 0 {
				t.Fatalf("%s: leaf %d weighs 0", rule, nd.key)
			}
			if want == 0 {
				want = acc
			}
			if acc != want {
				t.Fatalf("%s: leaf %d sums to %d, want %d", rule, nd.key, acc, want)
			}
		}
		walk(top, 0)
	}
	for iter := 0; iter < 1000; iter++ {
		d := g.rng.Intn(2)
		// r is the path sum below the rule's top node; top weighs wt.
		wt := rw(1, 3)
		r := rw(2, 5)
		sum := wt + r

		l := g.sub(rw(1, 5), -1, 3)
		check("insert", planInsert(th, l, l.key+1), l.w)
		check("delete", planDelete(th, nodeC{w: wt, key: 1}, g.sub(r, -1, 1)), sum)
		check("root-weight", planRootWeight(th, g.sub(r, -1, 1)), 0)

		// Red-red at x under red p, gp on top: BLK (red uncle), RB1 (x
		// outside), RB2 (x inside).
		gp := nodeC{w: wt, key: 2}
		x := g.sub(r, 0, 1)
		xAddr := writeNode(th, x)
		p := pair(nodeC{w: 0, key: 3}, xAddr, g.addr(r, -1), d)
		u := g.sub(r, 0, 1)
		check("BLK", planBLK(th, pair(gp, writeNode(th, p), writeNode(th, u), d), p, u, d), sum)
		u = g.sub(r, int(rw(1, int(r))), 1)
		check("RB1", planRB1(th, pair(gp, writeNode(th, p), writeNode(th, u), d), p, xAddr, d), sum)
		p = pair(nodeC{w: 0, key: 3}, xAddr, g.addr(r, -1), 1-d)
		check("RB2", planRB2(th, pair(gp, writeNode(th, p), writeNode(th, u), d), p, x, d), sum)

		// Overweight x under p (weight wt-1, possibly red), sibling s.
		pw := nodeC{w: wt - 1, key: 4}
		x = g.sub(r, int(rw(2, int(r))), 1)
		xAddr = writeNode(th, x)
		s := g.sub(r, int(rw(1, int(r))), 1)
		check("A1", planA1(th, pw, x, s, d), sum-1)
		near, far := g.sub(r-1, int(rw(1, int(r-1))), 2), g.sub(r-1, 0, 2)
		s = pair(nodeC{w: 1, key: 5}, writeNode(th, near), writeNode(th, far), d)
		check("A1b", planA1b(th, pw, x, s, d), sum-1)
		near, far = g.sub(r-1, 0, 2), g.sub(r-1, int(rw(1, int(r-1))), 2)
		s = pair(nodeC{w: 1, key: 5}, writeNode(th, near), writeNode(th, far), d)
		check("A1c", planA1c(th, pw, x, s, near, d), sum-1)
		near, far = g.sub(r-1, 0, 2), g.sub(r-1, 0, 2)
		s = pair(nodeC{w: 1, key: 5}, writeNode(th, near), writeNode(th, far), d)
		check("A1e", planA1e(th, pw, x, s, far, d), sum-1)

		// Red sibling under a black p: A2 (near nephew black), A3 (red).
		near, far = g.sub(r, int(rw(1, int(r))), 2), g.sub(r, -1, 2)
		s = pair(nodeC{w: 0, key: 5}, writeNode(th, near), writeNode(th, far), d)
		check("A2", planA2(th, gp, s, xAddr, d), sum)
		near = g.sub(r, 0, 2)
		s = pair(nodeC{w: 0, key: 5}, writeNode(th, near), writeNode(th, far), d)
		check("A3", planA3(th, gp, s, near, xAddr, d), sum)
	}
}
