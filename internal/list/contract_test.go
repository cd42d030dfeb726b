package list_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/list"
	"repro/internal/machine"
	"repro/internal/sets"
	"repro/internal/sets/settest"
)

// The generic set tests below keep their names: each runs cases of the set
// contract (internal/sets/settest) on the catalogue's lists.

var lists = []sets.Entry{
	settest.Catalogued("Harris", "harris-list"),
	settest.Catalogued("VAS", "vas-list"),
	settest.Catalogued("HoH", "hoh-list"),
	settest.Catalogued("Lock", "lock-list"),
}

func TestEmpty(t *testing.T)                { settest.Each(t, "must/empty", lists...) }
func TestInsertDeleteContains(t *testing.T) { settest.Each(t, "must/insert-delete-contains", lists...) }
func TestBoundaryKeys(t *testing.T)         { settest.Each(t, "must/boundary-keys", lists...) }
func TestKeysSortedSnapshot(t *testing.T)   { settest.Each(t, "must/keys-sorted", lists...) }
func TestSequentialEquivalence(t *testing.T) {
	settest.Each(t, "must/sequential-narrow", lists...)
}
func TestSequentialEquivalenceWideRange(t *testing.T) {
	settest.Each(t, "must/sequential-wide", lists...)
}
func TestDisjointConcurrent(t *testing.T)  { settest.Each(t, "must/disjoint-concurrent", lists...) }
func TestMixedConcurrent(t *testing.T)     { settest.Each(t, "must/mixed-concurrent-32", lists...) }
func TestMixedConcurrentTiny(t *testing.T) { settest.Each(t, "must/mixed-concurrent-4", lists...) }

// TestLinearizableVTags runs the elided list at fallback threshold 4, below
// the catalogue's default, so the Mode-line flips force fast/slow
// transitions.
func TestLinearizableVTags(t *testing.T) {
	settest.EachOn(t, settest.VTags, "must/linearizable",
		settest.Catalogued("harris", "harris-list"),
		settest.Catalogued("vas", "vas-list"),
		settest.Catalogued("hoh", "hoh-list"),
		settest.Catalogued("lock", "lock-list"),
		sets.Entry{Name: "elided", New: func(m core.Memory) intset.Set { return list.NewElided(m, 4) }})
}

func TestElidedConcurrentOnMachine(t *testing.T) {
	var s *list.Elided
	settest.EachOn(t, settest.Machine, "must/mixed-concurrent-32", sets.Entry{Name: "elided",
		New: func(m core.Memory) intset.Set { s = list.NewElided(m, 0); return s }})
	if s.FastCommits.Load() == 0 {
		t.Fatal("no update ever committed on the fast path")
	}
}

// TestElidedMixedPathsAgree: operations completing on different paths
// still form one linearizable set (fast VAS and slow CAS are compatible on
// the shared marked-node layout).
func TestElidedMixedPathsAgree(t *testing.T) {
	smallL1 := settest.Memory{Name: "small-l1", New: func(n int) core.Memory {
		cfg := machine.DefaultConfig(n)
		cfg.MemBytes = 16 << 20
		cfg.L1Bytes = 8 * core.LineSize // frequent fallbacks
		cfg.L1Ways = 2
		return machine.New(cfg)
	}}
	var s *list.Elided
	settest.EachOn(t, smallL1, "must/mixed-concurrent-4", sets.Entry{Name: "elided",
		New: func(m core.Memory) intset.Set { s = list.NewElided(m, 2); return s }})
	if s.SlowCommits.Load() == 0 || s.FastCommits.Load() == 0 {
		t.Skipf("want both paths exercised; fast=%d slow=%d",
			s.FastCommits.Load(), s.SlowCommits.Load())
	}
}

// TestHoHOnSimulatorSmoke runs a mixed workload of the HoH list on the
// machine with several cores and requires tag activity.
func TestHoHOnSimulatorSmoke(t *testing.T) {
	var m *machine.Machine
	settest.EachOn(t, settest.Machine, "must/mixed-concurrent-32", sets.Entry{Name: "hoh",
		New: func(mem core.Memory) intset.Set { m = mem.(*machine.Machine); return list.NewHoH(mem) }})
	if snap := m.Snapshot(); snap.Validates == 0 || snap.TagAdds == 0 {
		t.Fatal("HoH on machine produced no tag activity")
	}
}
