package bst

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/vtags"
)

var bstVariants = []struct {
	name string
	mk   func(core.Memory) intset.Set
}{
	{"LLX", func(m core.Memory) intset.Set { return NewLLX(m) }},
	{"HoH", func(m core.Memory) intset.Set { return NewHoH(m) }},
}

var bstBackends = []struct {
	name string
	mk   func(int) core.Memory
}{
	{"vtags", func(n int) core.Memory { return vtags.New(64<<20, n) }},
	{"machine", func(n int) core.Memory {
		cfg := machine.DefaultConfig(n)
		cfg.MemBytes = 64 << 20
		return machine.New(cfg)
	}},
}

// forAllBSTs runs f on every variant and backend, then checks the
// structural invariants of the tree f left behind (every test ends
// quiescent).
func forAllBSTs(t *testing.T, threads int, f func(t *testing.T, mem core.Memory, s intset.Set)) {
	for _, b := range bstBackends {
		for _, v := range bstVariants {
			t.Run(fmt.Sprintf("%s/%s", b.name, v.name), func(t *testing.T) {
				mem := b.mk(threads)
				s := v.mk(mem)
				f(t, mem, s)
				if err := s.(intset.Checker).CheckInvariants(mem.Thread(0)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestBSTBasic(t *testing.T) {
	forAllBSTs(t, 1, func(t *testing.T, mem core.Memory, s intset.Set) {
		th := mem.Thread(0)
		if s.Contains(th, 7) || s.Delete(th, 7) {
			t.Fatal("empty tree misbehaves")
		}
		if !s.Insert(th, 7) || s.Insert(th, 7) {
			t.Fatal("insert semantics")
		}
		if !s.Contains(th, 7) {
			t.Fatal("inserted key missing")
		}
		if !s.Delete(th, 7) || s.Delete(th, 7) || s.Contains(th, 7) {
			t.Fatal("delete semantics")
		}
	})
}

func TestBSTGrowShrink(t *testing.T) {
	forAllBSTs(t, 1, func(t *testing.T, mem core.Memory, s intset.Set) {
		th := mem.Thread(0)
		for k := uint64(1); k <= 200; k++ {
			s.Insert(th, k*7%211+1)
		}
		for k := uint64(1); k <= 200; k++ {
			key := k*7%211 + 1
			if !s.Contains(th, key) {
				t.Fatalf("key %d lost", key)
			}
		}
		for k := uint64(1); k <= 200; k += 2 {
			s.Delete(th, k*7%211+1)
		}
	})
}

func TestBSTSequentialEquivalence(t *testing.T) {
	forAllBSTs(t, 1, func(t *testing.T, mem core.Memory, s intset.Set) {
		intset.CheckSequential(t, mem, s, 3000, 128, 77)
	})
}

func TestBSTDisjointConcurrent(t *testing.T) {
	forAllBSTs(t, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		intset.CheckDisjointConcurrent(t, mem, s, 4, 300)
	})
}

func TestBSTMixedConcurrent(t *testing.T) {
	forAllBSTs(t, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		intset.CheckMixedConcurrent(t, mem, s, 4, 250, 32)
	})
}

func TestBSTHighContention(t *testing.T) {
	forAllBSTs(t, 4, func(t *testing.T, mem core.Memory, s intset.Set) {
		intset.CheckMixedConcurrent(t, mem, s, 4, 200, 4)
	})
}

// TestHoHBSTDeleteInvalidatesWindow pins the synchronization rule for the
// two-node removal chain: after a delete, a thread holding tags on the
// removed parent or leaf fails validation.
func TestHoHBSTDeleteInvalidatesWindow(t *testing.T) {
	mem := vtags.New(8<<20, 2)
	s := NewHoH(mem)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	s.Insert(t0, 10)
	s.Insert(t0, 20)

	// t1 pauses holding tags on the leaf 10 and its parent.
	a := s.Begin(t1)
	_, _, l := a.Locate(10)
	if KeyOf(t1, l) != 10 {
		t.Fatal("locate found wrong leaf")
	}
	if !t1.Validate() {
		t.Fatal("window invalid before delete")
	}
	if !s.Delete(t0, 10) {
		t.Fatal("delete failed")
	}
	if t1.Validate() {
		t.Fatal("delete did not invalidate the removed window")
	}
	t1.ClearTagSet()
}

// TestBSTSentinelsSurvive: draining the tree completely must leave the
// sentinel structure intact and reusable.
func TestBSTSentinelsSurvive(t *testing.T) {
	forAllBSTs(t, 1, func(t *testing.T, mem core.Memory, s intset.Set) {
		th := mem.Thread(0)
		for round := 0; round < 3; round++ {
			for k := uint64(1); k <= 20; k++ {
				if !s.Insert(th, k) {
					t.Fatalf("round %d: insert %d failed", round, k)
				}
			}
			for k := uint64(1); k <= 20; k++ {
				if !s.Delete(th, k) {
					t.Fatalf("round %d: delete %d failed", round, k)
				}
			}
			if got := s.(intset.Snapshotter).Keys(th); len(got) != 0 {
				t.Fatalf("round %d: residue %v", round, got)
			}
		}
	})
}

// TestBSTInterVariantAgreement runs one op sequence through both variants.
func TestBSTInterVariantAgreement(t *testing.T) {
	memA := vtags.New(32<<20, 1)
	memB := vtags.New(32<<20, 1)
	llx := NewLLX(memA)
	hoh := NewHoH(memB)
	thA, thB := memA.Thread(0), memB.Thread(0)
	ref := intset.Reference{}
	for i := 0; i < 3000; i++ {
		k := uint64(i*2654435761)%97 + 1
		switch i % 3 {
		case 0:
			want := ref.Insert(k)
			if llx.Insert(thA, k) != want || hoh.Insert(thB, k) != want {
				t.Fatalf("op %d: Insert(%d) diverged", i, k)
			}
		case 1:
			want := ref.Delete(k)
			if llx.Delete(thA, k) != want || hoh.Delete(thB, k) != want {
				t.Fatalf("op %d: Delete(%d) diverged", i, k)
			}
		default:
			want := ref.Contains(k)
			if llx.Contains(thA, k) != want || hoh.Contains(thB, k) != want {
				t.Fatalf("op %d: Contains(%d) diverged", i, k)
			}
		}
	}
}
