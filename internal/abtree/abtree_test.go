package abtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/vtags"
)

type ctor func(mem core.Memory, a, b int) intset.Set

var treeVariants = []struct {
	name string
	mk   ctor
}{
	{"LLX", func(m core.Memory, a, b int) intset.Set { return NewLLX(m, a, b) }},
	{"HoH", func(m core.Memory, a, b int) intset.Set { return NewHoH(m, a, b) }},
}

var treeBackends = []struct {
	name string
	mk   func(threads int) core.Memory
}{
	{"vtags", func(threads int) core.Memory { return vtags.New(64<<20, threads) }},
	{"machine", func(threads int) core.Memory {
		cfg := machine.DefaultConfig(threads)
		cfg.MemBytes = 64 << 20
		return machine.New(cfg)
	}},
}

// forAllTrees runs f on every variant and backend, then checks the
// structural invariants of the tree f left behind (every test ends
// quiescent).
func forAllTrees(t *testing.T, threads, a, b int, f func(t *testing.T, mem core.Memory, s intset.Set)) {
	for _, bk := range treeBackends {
		for _, v := range treeVariants {
			t.Run(fmt.Sprintf("%s/%s/a%d_b%d", bk.name, v.name, a, b), func(t *testing.T) {
				mem := bk.mk(threads)
				s := v.mk(mem, a, b)
				f(t, mem, s)
				if err := s.(intset.Checker).CheckInvariants(mem.Thread(0)); err != nil {
					t.Fatalf("tree invariants: %v", err)
				}
			})
		}
	}
}

func TestTreeEmpty(t *testing.T) {
	forAllTrees(t, 1, 2, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		th := mem.Thread(0)
		if s.Contains(th, 5) || s.Delete(th, 5) {
			t.Fatal("empty tree misbehaves")
		}
	})
}

func TestTreeBasicOps(t *testing.T) {
	forAllTrees(t, 1, 2, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		th := mem.Thread(0)
		if !s.Insert(th, 10) || s.Insert(th, 10) {
			t.Fatal("insert semantics")
		}
		if !s.Contains(th, 10) || s.Contains(th, 11) {
			t.Fatal("contains semantics")
		}
		if !s.Delete(th, 10) || s.Delete(th, 10) || s.Contains(th, 10) {
			t.Fatal("delete semantics")
		}
	})
}

func TestTreeLeafSplitAndGrowth(t *testing.T) {
	forAllTrees(t, 1, 2, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		th := mem.Thread(0)
		// Enough ascending inserts to force many splits and height growth.
		for k := uint64(1); k <= 200; k++ {
			if !s.Insert(th, k) {
				t.Fatalf("insert %d failed", k)
			}
		}
		for k := uint64(1); k <= 200; k++ {
			if !s.Contains(th, k) {
				t.Fatalf("key %d lost after splits", k)
			}
		}
	})
}

func TestTreeShrinkToEmpty(t *testing.T) {
	forAllTrees(t, 1, 2, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		th := mem.Thread(0)
		for k := uint64(1); k <= 150; k++ {
			s.Insert(th, k)
		}
		for k := uint64(1); k <= 150; k++ {
			if !s.Delete(th, k) {
				t.Fatalf("delete %d failed", k)
			}
			if s.Contains(th, k) {
				t.Fatalf("key %d survives deletion", k)
			}
		}
		for k := uint64(1); k <= 150; k++ {
			if s.Contains(th, k) {
				t.Fatalf("key %d reappeared", k)
			}
		}
	})
}

func TestTreeDescendingAndInterleaved(t *testing.T) {
	forAllTrees(t, 1, 3, 5, func(t *testing.T, mem core.Memory, s intset.Set) {
		th := mem.Thread(0)
		for k := uint64(200); k >= 1; k-- {
			s.Insert(th, k)
		}
		// Delete every other key to exercise merges/distributes.
		for k := uint64(2); k <= 200; k += 2 {
			if !s.Delete(th, k) {
				t.Fatalf("delete %d failed", k)
			}
		}
		for k := uint64(1); k <= 200; k++ {
			want := k%2 == 1
			if s.Contains(th, k) != want {
				t.Fatalf("key %d membership = %v, want %v", k, !want, want)
			}
		}
	})
}

func TestTreeSequentialEquivalence(t *testing.T) {
	for _, ab := range [][2]int{{2, 4}, {2, 3}, {4, 8}} {
		forAllTrees(t, 1, ab[0], ab[1], func(t *testing.T, mem core.Memory, s intset.Set) {
			intset.CheckSequential(t, mem, s, 3000, 128, 99)
		})
	}
}

func TestTreeSequentialWideRange(t *testing.T) {
	forAllTrees(t, 1, 4, 8, func(t *testing.T, mem core.Memory, s intset.Set) {
		intset.CheckSequential(t, mem, s, 2000, 1<<40, 5)
	})
}

func TestTreeDisjointConcurrent(t *testing.T) {
	forAllTrees(t, 4, 2, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		intset.CheckDisjointConcurrent(t, mem, s, 4, 300)
	})
}

func TestTreeMixedConcurrent(t *testing.T) {
	forAllTrees(t, 4, 2, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		intset.CheckMixedConcurrent(t, mem, s, 4, 250, 48)
	})
}

func TestTreeMixedConcurrentHighContention(t *testing.T) {
	forAllTrees(t, 4, 2, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		intset.CheckMixedConcurrent(t, mem, s, 4, 200, 6)
	})
}

func TestTreeInvalidParamsPanics(t *testing.T) {
	mem := vtags.New(1<<20, 1)
	for _, ab := range [][2]int{{1, 4}, {2, 2}, {3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a=%d b=%d accepted", ab[0], ab[1])
				}
			}()
			NewHoH(mem, ab[0], ab[1])
		}()
	}
}

func TestTreeKeysEnumeration(t *testing.T) {
	forAllTrees(t, 1, 2, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		th := mem.Thread(0)
		rng := rand.New(rand.NewSource(3))
		ref := intset.Reference{}
		for i := 0; i < 300; i++ {
			k := uint64(rng.Intn(500) + 1)
			if rng.Intn(3) < 2 {
				s.Insert(th, k)
				ref.Insert(k)
			} else {
				s.Delete(th, k)
				ref.Delete(k)
			}
		}
		keys := s.(intset.Snapshotter).Keys(th)
		if len(keys) != len(ref) {
			t.Fatalf("enumeration has %d keys, want %d", len(keys), len(ref))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatal("enumeration not sorted")
			}
		}
		for _, k := range keys {
			if !ref[k] {
				t.Fatalf("enumerated ghost key %d", k)
			}
		}
	})
}

// TestHoHTreeUsesIAS pins that every HoH structural change goes through IAS
// and that searches produce tag traffic but no coherence writes.
func TestHoHTreeUsesIAS(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	s := NewHoH(m, 2, 4)
	th := m.Thread(0)
	for k := uint64(1); k <= 50; k++ {
		s.Insert(th, k)
	}
	snap := m.Snapshot()
	if snap.IASAttempts == 0 {
		t.Fatal("HoH tree performed no IAS")
	}
	if snap.TagAdds == 0 || snap.Validates == 0 {
		t.Fatal("HoH tree performed no tagging")
	}

	stores := snap.Stores
	casesBefore := snap.CASes
	for k := uint64(1); k <= 50; k++ {
		s.Contains(th, k)
	}
	snap2 := m.Snapshot()
	// Contains allocates nothing and writes nothing: reader does not write.
	if snap2.Stores != stores || snap2.CASes != casesBefore {
		t.Fatal("HoH search wrote to shared memory")
	}
}

// TestLLXTreeFinalizesNodes pins that replaced nodes are marked, so late
// SCXs on them fail.
func TestLLXTreeFinalizesNodes(t *testing.T) {
	mem := vtags.New(16<<20, 1)
	s := NewLLX(mem, 2, 4)
	th := mem.Thread(0)
	// The initial empty leaf is replaced by the first insert and must be
	// finalized.
	ly := layout{a: 2, b: 4}
	firstLeaf := core.Addr(th.Load(ly.ptrAddr(s.sentinel, 0)))
	s.Insert(th, 42)
	if th.Load(firstLeaf.Plus(fMarked)) == 0 {
		t.Fatal("replaced leaf was not finalized")
	}
}

// TestTreeInterVariantAgreement runs the same op sequence through both
// variants and compares every result.
func TestTreeInterVariantAgreement(t *testing.T) {
	memA := vtags.New(32<<20, 1)
	memB := vtags.New(32<<20, 1)
	llx := NewLLX(memA, 2, 4)
	hoh := NewHoH(memB, 2, 4)
	thA, thB := memA.Thread(0), memB.Thread(0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(96) + 1)
		switch rng.Intn(3) {
		case 0:
			if llx.Insert(thA, k) != hoh.Insert(thB, k) {
				t.Fatalf("op %d: Insert(%d) diverged", i, k)
			}
		case 1:
			if llx.Delete(thA, k) != hoh.Delete(thB, k) {
				t.Fatalf("op %d: Delete(%d) diverged", i, k)
			}
		default:
			if llx.Contains(thA, k) != hoh.Contains(thB, k) {
				t.Fatalf("op %d: Contains(%d) diverged", i, k)
			}
		}
	}
	if err := llx.CheckInvariants(thA); err != nil {
		t.Fatalf("LLX invariants: %v", err)
	}
	if err := hoh.CheckInvariants(thB); err != nil {
		t.Fatalf("HoH invariants: %v", err)
	}
}
