package chromatic

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bst"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/vtags"
)

var chromVariants = []struct {
	name string
	mk   func(core.Memory) intset.Set
}{
	{"LLX", func(m core.Memory) intset.Set { return NewLLX(m) }},
	{"HoH", func(m core.Memory) intset.Set { return NewHoH(m) }},
}

// setOf returns the set either variant wraps.
func setOf(s intset.Set) *set {
	if l, ok := s.(*LLX); ok {
		return &l.set
	}
	return &s.(*HoH).set
}

// TestChromaticHeightLogarithmic: after heavy random churn the tree height
// must stay near the red-black bound.
func TestChromaticHeightLogarithmic(t *testing.T) {
	mem := vtags.New(128<<20, 1)
	s := NewHoH(mem)
	th := mem.Thread(0)
	const n = 4096
	rng := rand.New(rand.NewSource(6))
	for _, k := range rng.Perm(n) {
		s.Insert(th, uint64(k+1))
	}
	if err := s.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	// Measure depth of the leftmost and a few random search paths.
	depth := func(key uint64) int {
		d := 0
		x := core.Addr(th.Load(s.S2().Plus(bst.FLeft)))
		for !bst.IsLeaf(th, x) {
			x = core.Addr(th.Load(bst.ChildSlot(th, x, key)))
			d++
		}
		return d
	}
	// 2*log2(4096) = 24; allow generous slack for relaxed balance.
	for _, k := range []uint64{1, n / 2, n, 17, 1234} {
		if d := depth(k); d > 36 {
			t.Fatalf("search path to %d has depth %d (> 36): unbalanced", k, d)
		}
	}
}

// TestHoHChromaticUsesIAS pins the tagged commit path.
func TestHoHChromaticUsesIAS(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 64 << 20
	m := machine.New(cfg)
	s := NewHoH(m)
	th := m.Thread(0)
	for k := uint64(1); k <= 60; k++ {
		s.Insert(th, k)
	}
	snap := m.Snapshot()
	if snap.IASAttempts == 0 || snap.TagAdds == 0 {
		t.Fatal("HoH chromatic tree issued no tagged commits")
	}
	if snap.Stores != 0 {
		// Node initialization uses plain stores; just sanity-check the
		// counter moved.
		_ = snap
	}
}

// TestOverweightUnderRedRootChildKeepsSentinel builds the shape two
// overlapping updates can leave behind — a red root-child R whose one child
// is a red internal node S and whose other child X is overweight — and
// cleans up toward X. fixOverweight hands the off-path red-red (R, S) to
// fixRedRed with the sentinel S2 as grandparent; rotating there would
// replace S2, after which the tree the sentinels name is a frozen copy
// (DESIGN.md §6 item 6).
func TestOverweightUnderRedRootChildKeepsSentinel(t *testing.T) {
	for _, v := range chromVariants {
		t.Run(v.name, func(t *testing.T) {
			mem := vtags.New(1<<20, 1)
			th := mem.Thread(0)
			s := v.mk(mem)
			c := setOf(s)
			pair := func(lo, hi uint64) core.Addr {
				return writeNode(th, nodeC{w: 1, key: hi, kid: [2]core.Addr{mkLeaf(th, 1, lo), mkLeaf(th, 1, hi)}})
			}
			sib := writeNode(th, nodeC{w: 0, key: 5, kid: [2]core.Addr{pair(2, 3), pair(5, 7)}})
			rc := writeNode(th, nodeC{w: 0, key: 10, kid: [2]core.Addr{sib, mkLeaf(th, 2, 10)}})
			th.Store(c.S2().Plus(bst.FLeft), uint64(rc))

			c.cleanup(th, 10) // toward X
			if got := core.Addr(th.Load(c.Root().Plus(bst.FLeft))); got != c.S2() {
				t.Fatalf("sentinel S2 was replaced: root's child is %#x, S2 is %#x", uint64(got), uint64(c.S2()))
			}
			if err := c.CheckInvariants(th); err != nil {
				t.Fatal(err)
			}
			want := []uint64{2, 3, 5, 7, 10}
			if got := s.(intset.Snapshotter).Keys(th); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("keys = %v, want %v", got, want)
			}
		})
	}
}

// TestCheckInvariantsRejectsBrokenSentinel plants two broken sentinels the
// weight walk never visits — S1's Inf2 leaf re-keyed, and a real leaf hung
// as S2's right child — and requires the checker to reject each.
func TestCheckInvariantsRejectsBrokenSentinel(t *testing.T) {
	for _, v := range chromVariants {
		t.Run(v.name, func(t *testing.T) {
			for name, plant := range map[string]func(th core.Thread, c *set){
				"inf2-leaf-rekeyed": func(th core.Thread, c *set) {
					l := core.Addr(th.Load(c.Root().Plus(bst.FRight)))
					th.Store(l.Plus(bst.FKey), bst.Inf1)
				},
				"real-leaf-right-of-s2": func(th core.Thread, c *set) {
					th.Store(c.S2().Plus(bst.FRight), uint64(mkLeaf(th, 1, 50)))
				},
			} {
				mem := vtags.New(1<<20, 1)
				th := mem.Thread(0)
				s := v.mk(mem)
				for k := uint64(1); k <= 20; k++ {
					s.Insert(th, k)
				}
				c := setOf(s)
				if err := c.CheckInvariants(th); err != nil {
					t.Fatalf("%s: intact tree rejected: %v", name, err)
				}
				plant(th, c)
				if err := c.CheckInvariants(th); err == nil {
					t.Errorf("%s: CheckInvariants accepted a broken sentinel", name)
				}
			}
		})
	}
}
