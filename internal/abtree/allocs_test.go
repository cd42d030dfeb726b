package abtree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/vtags"
)

// TestContainsAllocatesNothing pins the host cost of a lookup at zero
// allocations on every flavour: the descent computes the child slot while it
// loads the router keys instead of copying them out, and the steps' storage
// is per thread and fixed. (Updates allocate: the planners build replacement
// nodes from slices.)
func TestContainsAllocatesNothing(t *testing.T) {
	for name, build := range map[string]func(core.Memory) intset.Set{
		"llx":    func(m core.Memory) intset.Set { return NewLLX(m, 4, 8) },
		"hoh":    func(m core.Memory) intset.Set { return NewHoH(m, 4, 8) },
		"elided": func(m core.Memory) intset.Set { return NewElided(m, 4, 8, 0) },
	} {
		mem := vtags.New(16<<20, 1)
		s, th := build(mem), mem.Thread(0)
		for k := uint64(1); k <= 512; k += 2 {
			s.Insert(th, k)
		}
		key := uint64(0)
		if got := testing.AllocsPerRun(200, func() {
			key = key%512 + 1
			s.Contains(th, key)
		}); got != 0 {
			t.Errorf("%s: Contains allocates %.1f times per call, want 0", name, got)
		}
	}
}
