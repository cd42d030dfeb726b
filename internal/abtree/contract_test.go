package abtree_test

import (
	"fmt"
	"testing"

	"repro/internal/abtree"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/sets"
	"repro/internal/sets/settest"
)

// The generic set tests below keep their names: each runs cases of the set
// contract (internal/sets/settest). The catalogue builds the trees at
// (4,8); most of these run them at (2,4), where a handful of keys already
// splits and merges nodes, and one at (3,5).

// shape returns the LLX and HoH trees at (a,b).
func shape(a, b int) []sets.Entry {
	return []sets.Entry{
		{Name: fmt.Sprintf("LLX/a%d_b%d", a, b), New: func(m core.Memory) intset.Set { return abtree.NewLLX(m, a, b) }},
		{Name: fmt.Sprintf("HoH/a%d_b%d", a, b), New: func(m core.Memory) intset.Set { return abtree.NewHoH(m, a, b) }},
	}
}

var small = shape(2, 4)

func TestTreeEmpty(t *testing.T)    { settest.Each(t, "must/empty", small...) }
func TestTreeBasicOps(t *testing.T) { settest.Each(t, "must/insert-delete-contains", small...) }
func TestTreeLeafSplitAndGrowth(t *testing.T) {
	settest.Each(t, "must/grow-drain-ascending", small...)
}
func TestTreeShrinkToEmpty(t *testing.T) { settest.Each(t, "must/grow-drain-", small...) }
func TestTreeDescendingAndInterleaved(t *testing.T) {
	settest.Each(t, "must/grow-drain-descending", shape(3, 5)...)
}
func TestTreeSequentialEquivalence(t *testing.T) {
	settest.Each(t, "must/sequential-narrow", append(append(shape(2, 4), shape(2, 3)...), shape(4, 8)...)...)
}
func TestTreeSequentialWideRange(t *testing.T) {
	settest.Each(t, "must/sequential-wide", shape(4, 8)...)
}
func TestTreeDisjointConcurrent(t *testing.T) { settest.Each(t, "must/disjoint-concurrent", small...) }
func TestTreeMixedConcurrent(t *testing.T)    { settest.Each(t, "must/mixed-concurrent-32", small...) }
func TestTreeMixedConcurrentHighContention(t *testing.T) {
	settest.Each(t, "must/mixed-concurrent-4", small...)
}
func TestTreeKeysEnumeration(t *testing.T) { settest.Each(t, "must/keys-sorted", small...) }
func TestTreeInterVariantAgreement(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/sequential-", small...)
}

func TestContainsAllocatesNothing(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/contains-allocates-nothing",
		settest.Catalogued("llx", "llx-tree"),
		settest.Catalogued("hoh", "hoh-tree"),
		settest.Catalogued("elided", "elided-tree"))
}

// TestReclaimDifferentialSmallNodes runs the reclamation differential on
// the HoH tree at (2,4), where nearly every update splits or merges and so
// retires nodes: the shape at which a fix step on a replaced ancestor once
// retired live nodes (TestFixOnReplacedAncestorRetiresNothing). The
// machine's sync window is jittered.
func TestReclaimDifferentialSmallNodes(t *testing.T) {
	e := sets.Entry{Name: "HoH/a2_b4",
		New:  func(m core.Memory) intset.Set { return abtree.NewHoH(m, 2, 4) },
		Pool: sets.Pooled((*abtree.HoHTree).NodeWords)}
	for _, m := range []settest.Memory{settest.VTags, settest.JitteredMachine(11)} {
		t.Run(m.Name, func(t *testing.T) { settest.EachOn(t, m, "reclaim/", e) })
	}
}

func elided24(s **abtree.Elided, threshold int) sets.Entry {
	return sets.Entry{Name: "elided/a2_b4", New: func(m core.Memory) intset.Set {
		*s = abtree.NewElided(m, 2, 4, threshold)
		return *s
	}}
}

func TestElidedTreeSequential(t *testing.T) {
	var s *abtree.Elided
	settest.EachOn(t, settest.VTags, "must/sequential-narrow", elided24(&s, 0))
}

func TestElidedTreeConcurrent(t *testing.T) {
	var s *abtree.Elided
	settest.EachOn(t, settest.VTags, "must/mixed-concurrent-32", elided24(&s, 0))
}

func TestElidedTreeOnMachine(t *testing.T) {
	var s *abtree.Elided
	settest.EachOn(t, settest.Machine, "must/mixed-concurrent-32", elided24(&s, 0))
	if s.FastCommits.Load() == 0 {
		t.Fatal("no update committed on the tagged fast path")
	}
}

// TestElidedTreeBothPathsInterleaved drives a workload that forces a mix
// of fast and slow commits on the machine backend and verifies the final
// structure agrees with a reference, proving path compatibility.
func TestElidedTreeBothPathsInterleaved(t *testing.T) {
	tightL1 := settest.Memory{Name: "tight-l1", New: func(n int) core.Memory {
		cfg := machine.DefaultConfig(n)
		cfg.MemBytes = 128 << 20
		cfg.L1Bytes = 16 * core.LineSize // frequent spurious failures
		cfg.L1Ways = 2
		return machine.New(cfg)
	}}
	var s *abtree.Elided
	settest.EachOn(t, tightL1, "must/mixed-concurrent-32", elided24(&s, 2))
	if s.FastCommits.Load() == 0 || s.SlowCommits.Load() == 0 {
		t.Skipf("want both paths; fast=%d slow=%d", s.FastCommits.Load(), s.SlowCommits.Load())
	}
}
