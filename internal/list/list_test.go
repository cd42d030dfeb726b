package list

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vtags"
)

// TestHoHTagHygiene ensures HoH operations never leak tags.
func TestHoHTagHygiene(t *testing.T) {
	mem := vtags.New(1<<20, 1)
	s := NewHoH(mem)
	th := mem.Thread(0)
	ops := []func(){
		func() { s.Insert(th, 5) },
		func() { s.Contains(th, 5) },
		func() { s.Insert(th, 9) },
		func() { s.Delete(th, 5) },
		func() { s.Delete(th, 123) },
		func() { s.Contains(th, 9) },
	}
	for i, op := range ops {
		op()
		if th.TagCount() != 0 {
			t.Fatalf("op %d leaked %d tags", i, th.TagCount())
		}
	}
}

// TestHoHDeleteInvalidatesTraversal pins the paper's core synchronization
// rule: a HoH delete IAS-invalidates the removed node, so a concurrent
// thread holding a tag on it fails validation.
func TestHoHDeleteInvalidatesTraversal(t *testing.T) {
	mem := vtags.New(1<<20, 2)
	s := NewHoH(mem)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	s.Insert(t0, 10)
	s.Insert(t0, 20)

	// t1 simulates a traversal paused while holding a tag on node 10.
	node10 := findNode(t1, s.head, 10)
	t1.AddTag(node10, nodeBytes)
	if !t1.Validate() {
		t.Fatal("tag on live node invalid")
	}

	if !s.Delete(t0, 10) {
		t.Fatal("delete failed")
	}
	if t1.Validate() {
		t.Fatal("IAS delete did not invalidate the removed node at other cores")
	}
	t1.ClearTagSet()
}

// TestHoHWhyIASIsNeeded demonstrates the Figure 1 counterexample: if the
// delete were performed with VAS (no invalidation of the removed node), a
// paused traversal holding tags only on the removed node and its successor
// would validate successfully and insert into a deleted region.
func TestHoHWhyIASIsNeeded(t *testing.T) {
	mem := vtags.New(1<<20, 2)
	s := NewHoH(mem)
	t0, t1 := mem.Thread(0), mem.Thread(1)
	s.Insert(t0, 10)
	s.Insert(t0, 20)

	node10 := findNode(t1, s.head, 10)
	t1.AddTag(node10, nodeBytes)

	// A hypothetical VAS-only delete of 10: swing head.next to node 20
	// while tagging only the head (not invalidating node 10).
	node20 := findNode(t0, s.head, 20)
	t0.AddTag(s.head, nodeBytes)
	if !t0.VAS(nextAddr(s.head), uint64(node20)) {
		t.Fatal("setup VAS failed")
	}
	t0.ClearTagSet()

	// t1 still validates: it cannot tell node 10 was removed. This is the
	// incorrect outcome IAS prevents, and why the paper's delete must use
	// invalidate-and-swap.
	if !t1.Validate() {
		t.Skip("backend invalidated anyway; counterexample needs VAS-only delete")
	}
	t1.ClearTagSet()
}

// findNode walks the list (quiescent) and returns the node with the key.
func findNode(th core.Thread, head core.Addr, key uint64) core.Addr {
	curr := head
	for !curr.IsNil() {
		if th.Load(keyAddr(curr)) == key {
			return curr
		}
		curr = core.Addr(clearMark(th.Load(nextAddr(curr))))
	}
	panic("key not found")
}

// TestHarrisHelpsUnlink checks that a traversal physically unlinks a
// logically deleted node.
func TestHarrisHelpsUnlink(t *testing.T) {
	mem := vtags.New(1<<20, 2)
	s := NewHarris(mem)
	th := mem.Thread(0)
	s.Insert(th, 10)
	s.Insert(th, 20)

	// Mark node 10 by hand (logical delete without unlinking).
	node10 := findNode(th, s.head, 10)
	next := th.Load(nextAddr(node10))
	if !th.CAS(nextAddr(node10), next, withMark(next)) {
		t.Fatal("manual mark failed")
	}
	if s.Contains(th, 10) {
		t.Fatal("marked node still reported present")
	}
	// A locate-based op must unlink it in passing.
	s.Insert(mem.Thread(1), 30)
	if got := core.Addr(clearMark(th.Load(nextAddr(s.head)))); got == node10 {
		t.Fatal("marked node not unlinked by helping traversal")
	}
}

// TestVASDeleteUsesTags ensures the VAS list actually exercises VAS (its
// point) rather than silently falling back to CAS.
func TestVASDeleteUsesTags(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 1 << 20
	m := machine.New(cfg)
	s := NewVAS(m)
	th := m.Thread(0)
	s.Insert(th, 5)
	s.Delete(th, 5)
	if m.Snapshot().VASAttempts == 0 {
		t.Fatal("VAS list performed no VAS operations")
	}
}

// TestHoHUsesIASOnDelete ensures the HoH delete path goes through IAS.
func TestHoHUsesIASOnDelete(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 1 << 20
	m := machine.New(cfg)
	s := NewHoH(m)
	th := m.Thread(0)
	s.Insert(th, 5)
	s.Delete(th, 5)
	snap := m.Snapshot()
	if snap.IASAttempts == 0 {
		t.Fatal("HoH delete performed no IAS")
	}
}

// TestLockListMutualExclusion: concurrent inserts of interleaved keys under
// locking never lose nodes.
func TestLockListMutualExclusion(t *testing.T) {
	mem := vtags.New(8<<20, 4)
	s := NewLock(mem)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := mem.Thread(w)
			for i := 0; i < 200; i++ {
				s.Insert(th, uint64(i*4+w+1))
			}
		}(w)
	}
	wg.Wait()
	th := mem.Thread(0)
	for i := 0; i < 800; i++ {
		if !s.Contains(th, uint64(i+1)) {
			t.Fatalf("key %d lost", i+1)
		}
	}
}
