package abtree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vtags"
)

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
