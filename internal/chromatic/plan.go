package chromatic

import "repro/internal/core"

// The rebalancing planners. Each materializes the replacement subtree for
// one atomic step and documents its path-sum bookkeeping: for every leaf
// of the affected region, the sum of weights from above the replaced top
// to that leaf is unchanged. W denotes the (identical) prefix above the
// region.
//
// Orientation convention: each rule is written once. Its side argument d
// is the slot (0 left, 1 right) of the relevant node in its parent, and the
// mirror image is the same code with d and 1-d exchanged. The diagrams draw
// d = 0. Each rule writes its new nodes bottom-up in a fixed order, whatever
// d is, because that order fixes their simulated addresses.

// planInsert replaces leaf l with a three-node subtree holding both keys.
//
//	path sums: old leaf contributes w_l. New: i(w_l-1) + leaf(1) = w_l on
//	both sides. The new internal routes on the larger key (left < key).
//
// Precondition: w_l >= 1, else w_l-1 wraps. It holds because no rule makes
// a leaf of weight 0, by induction over the rules: the sentinels, the
// lone-leaf delete and planInsert's two leaves weigh 1; planDelete gives
// w_p+w_s >= w_s, planRootWeight, BLK and A1e set 1; the A1 family lowers
// x only from w_x >= 2; planA1 lowers s only when s is internal or weighs 2
// or more (a weight-1 leaf's path sum could not equal the overweight x's);
// and the rotations reweight internal nodes only. CheckInvariants rejects a
// red leaf, and TestPlannersKeepLeavesWeighted feeds every planner leaves
// of weight >= 1.
func planInsert(th core.Thread, l nodeC, key uint64) core.Addr {
	small, big := key, l.key
	if small > big {
		small, big = big, small
	}
	return writeNode(th, nodeC{
		w:   l.w - 1,
		key: big,
		kid: [2]core.Addr{
			writeNode(th, nodeC{leaf: true, w: 1, key: small}),
			writeNode(th, nodeC{leaf: true, w: 1, key: big}),
		},
	})
}

// planDelete promotes the removed leaf's sibling with the parent's weight
// absorbed.
//
//	path sums through s: w_p + w_s before, w_p+w_s after. (The l-side
//	paths disappear with the key.)
func planDelete(th core.Thread, p, s nodeC) core.Addr {
	s.w = p.w + s.w
	return writeNode(th, s)
}

// planRootWeight renormalizes the root-child to weight 1. All real leaves
// are below it, so every path shifts equally — the path-sum rule compares
// only leaves against each other.
func planRootWeight(th core.Thread, x nodeC) core.Addr {
	x.w = 1
	return writeNode(th, x)
}

// planBLK is the recolouring for a red-red (x under p) with a red uncle u:
// blacken p and u, lift the deficit into gp.
//
//	sums: p-side: w_gp + 0 -> (w_gp-1) + 1; u-side: w_gp + 0 -> (w_gp-1)+1.
//	Requires w_gp >= 1 (guaranteed: the red-red at x is the topmost on the
//	path, so (p, gp) is not itself red-red).
//
// d is p's side in gp. Removed nodes: gp, p, u.
func planBLK(th core.Thread, gp, p, u nodeC, d int) core.Addr {
	p.w = 1
	u.w = 1
	gp.kid[d] = writeNode(th, p)
	gp.kid[1-d] = writeNode(th, u)
	gp.w = gp.w - 1
	return writeNode(th, gp)
}

// planRB1 is the single rotation for a red-red with black uncle and x an
// outside grandchild: p rises to gp's place and weight; gp descends red.
//
//	(x = p.left, p = gp.left)
//	sums: x: w_gp+0+0 -> w_gp+0 ... x keeps its node (untouched);
//	      c3 (p's other child): w_gp+0+w_c3 -> w_gp+0+w_c3;
//	      u: w_gp+w_u -> w_gp+0+w_u.
//
// d is p's side in gp (and x's in p). Removed nodes: gp, p. x is
// re-pointed, not replaced.
func planRB1(th core.Thread, gp, p nodeC, xAddr core.Addr, d int) core.Addr {
	gpDown := gp
	gpDown.w = 0
	gpDown.kid[d] = p.kid[1-d] // c3; u stays
	top := p
	top.w = gp.w
	top.kid[d], top.kid[1-d] = xAddr, writeNode(th, gpDown)
	return writeNode(th, top)
}

// planRB2 is the double rotation for a red-red with black uncle and x an
// inside grandchild: x rises to gp's place and weight; p and gp descend
// red.
//
//	(p = gp.left, x = p.right with children a, b)
//	sums: c3: w_gp+0+w_c3 -> w_gp+0+w_c3; a: w_gp+0+0+w_a -> w_gp+0+w_a;
//	      b likewise; u: w_gp+w_u -> w_gp+0+w_u.
//
// d is p's side in gp. Removed nodes: gp, p, x.
func planRB2(th core.Thread, gp, p, x nodeC, d int) core.Addr {
	pDown := p
	pDown.w = 0
	pDown.kid[1-d] = x.kid[d] // c3 stays; a
	gpDown := gp
	gpDown.w = 0
	gpDown.kid[d] = x.kid[1-d] // b; u stays
	top := x
	top.w = gp.w
	top.kid[d] = writeNode(th, pDown)
	top.kid[1-d] = writeNode(th, gpDown)
	return writeNode(th, top)
}

// planA1 pushes one unit of weight from both children into the parent,
// shrinking x's overweight (or eliminating it).
//
//	sums: x: w_p+w_x -> (w_p+1)+(w_x-1); s: w_p+w_s -> (w_p+1)+(w_s-1).
//	Requires w_s >= 1. s' = w_s-1 may become red under p' (w_p+1 >= 1):
//	no red-red created; p' may become overweight: the violation moves up.
//
// d is x's side in p. Removed nodes: p, x, s.
func planA1(th core.Thread, p, x, s nodeC, d int) core.Addr {
	x.w--
	s.w--
	p.kid[d] = writeNode(th, x)
	p.kid[1-d] = writeNode(th, s)
	p.w++
	return writeNode(th, p)
}

// planA2 rotates a red sibling up when its near child c is not red,
// giving x a pushable sibling for the next pass (A1).
//
//	(x = p.left, s = p.right red with s{c, d})
//	sums: x: w_p+w_x -> w_p+0+w_x; c: w_p+0+w_c -> w_p+0+w_c;
//	      d: w_p+0+w_d -> w_p+w_d.
//	No new violations: p'(0) sits under s'(w_p >= 1) — w_p >= 1 because a
//	red p under a red s's... p red with red child s would be a red-red at
//	s, found before x on the path.
//
// d is x's side in p. Removed nodes: p, s.
func planA2(th core.Thread, p, s nodeC, xAddr core.Addr, d int) core.Addr {
	pDown := p
	pDown.w = 0
	pDown.kid[d], pDown.kid[1-d] = xAddr, s.kid[d] // c
	top := s
	top.w = p.w
	top.kid[d] = writeNode(th, pDown) // the far nephew stays
	return writeNode(th, top)
}

// planA3 handles a red sibling whose near child c is also red (an existing
// red-red inside the sibling): double-rotate c to the top, consuming that
// red-red and strictly shrinking x's sibling subtree.
//
//	(x = p.left, s = p.right{c{e, f}, d})
//	sums: x: w_p+w_x -> w_p+0+w_x; e: w_p+0+0+w_e -> w_p+0+w_e;
//	      f likewise; d: w_p+0+w_d -> w_p+0+w_d.
//
// d is x's side in p. Removed nodes: p, s, c.
func planA3(th core.Thread, p, s, c nodeC, xAddr core.Addr, d int) core.Addr {
	return writeDoubleRotation(th, p, s, c, xAddr, d, p.w)
}

// planA1b absorbs x's excess by rotating its weight-1 sibling s up, when
// s's near child c is not red (c would otherwise turn red-red under the
// descending red p').
//
//	(x = p.left, s = p.right(w=1){c, d})
//	sums: x: w_p+w_x -> (w_p+1)+0+(w_x-1); c: w_p+1+w_c -> (w_p+1)+0+w_c;
//	      d: w_p+1+w_d -> (w_p+1)+w_d.
//	d may be red: it sits under s'(w_p+1 >= 1). x' = w_x-1 >= 1: no reds
//	introduced below p'(0).
//
// d is x's side in p. Removed nodes: p, x, s (c, d reused).
func planA1b(th core.Thread, p, x, s nodeC, d int) core.Addr {
	x.w--
	pDown := p
	pDown.w = 0
	pDown.kid[d] = writeNode(th, x)
	pDown.kid[1-d] = s.kid[d] // c
	top := s
	top.w = p.w + 1
	top.kid[d] = writeNode(th, pDown) // the far nephew stays
	return writeNode(th, top)
}

// planA1c handles a weight-1 sibling whose *near* child c is red (far
// child d is not): double-rotate c to the top.
//
//	(x = p.left, s = p.right(1){c(0){e, f}, d})
//	sums: x: w_p+w_x -> (w_p+1)+0+(w_x-1); e: w_p+1+0+w_e -> (w_p+1)+0+w_e;
//	      f: w_p+1+0+w_f -> (w_p+1)+0+w_f; d: w_p+1+w_d -> (w_p+1)+0+1+w_d...
//	d keeps its place under s'(1): w_p+1+w_d -> (w_p+1)+0... see below: s'
//	keeps weight 1 under the new red top? No: s' drops to 0 and c' rises
//	with w_p+1; d: (w_p+1)+0+w_d ✓.
//	Red-reds (e,c)/(f,c), if any, existed before and transform in place.
//	Guard: w_d >= 1 (else d would turn red-red under s'(0)).
//
// d is x's side in p. Removed nodes: p, x, s, c (e, f, d reused).
func planA1c(th core.Thread, p, x, s, c nodeC, d int) core.Addr {
	x.w--
	return writeDoubleRotation(th, p, s, c, writeNode(th, x), d, p.w+1)
}

// planA1e handles a weight-1 sibling with *both* children red: blacken the
// far child, lift s into p's position.
//
//	(x = p.left, s = p.right(1){c(0), d(0)})
//	sums: x: w_p+w_x -> w_p+1+(w_x-1); c: w_p+1+0 -> w_p+1+0 (c reused);
//	      d: w_p+1+0 -> w_p+1 (d' carries weight 1).
//	s'(w_p) takes p's exact weight, so nothing changes above; d's red-red
//	with s (pre-existing, off path) is consumed by d'(1).
//
// d is x's side in p; far is the far nephew drawn d. Removed nodes: p, x,
// s, d (c reused).
func planA1e(th core.Thread, p, x, s, far nodeC, d int) core.Addr {
	x.w--
	xNew := writeNode(th, x)
	far.w = 1
	farNew := writeNode(th, far)
	pDown := p
	pDown.w = 1
	pDown.kid[d], pDown.kid[1-d] = xNew, s.kid[d] // c
	top := s
	top.w = p.w
	top.kid[d], top.kid[1-d] = writeNode(th, pDown), farNew
	return writeNode(th, top)
}

// writeDoubleRotation is the shape A3 and A1c share: s's near child c
// rises to the top at weight wTop, and p (holding xAddr on side d) and s
// descend red, splitting c's children e and f between them.
func writeDoubleRotation(th core.Thread, p, s, c nodeC, xAddr core.Addr, d int, wTop uint64) core.Addr {
	pDown := p
	pDown.w = 0
	pDown.kid[d], pDown.kid[1-d] = xAddr, c.kid[d] // e
	sDown := s
	sDown.w = 0
	sDown.kid[d] = c.kid[1-d] // f; the far nephew stays
	top := c
	top.w = wTop
	top.kid[d] = writeNode(th, pDown)
	top.kid[1-d] = writeNode(th, sDown)
	return writeNode(th, top)
}
