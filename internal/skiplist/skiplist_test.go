package skiplist

import (
	"testing"

	"repro/internal/machine"
)

func TestSkipTowerHeights(t *testing.T) {
	// heightForKey must be deterministic, in range, and roughly geometric.
	counts := make([]int, MaxLevel+1)
	for k := uint64(1); k <= 4096; k++ {
		h := heightForKey(k)
		if h != heightForKey(k) {
			t.Fatal("height not deterministic")
		}
		if h < 1 || h > MaxLevel {
			t.Fatalf("height %d out of range", h)
		}
		counts[h]++
	}
	if counts[1] < 1500 || counts[1] > 2600 {
		t.Fatalf("height-1 frequency %d implausible for geometric(1/2)", counts[1])
	}
	if counts[2] < 700 || counts[2] > 1400 {
		t.Fatalf("height-2 frequency %d implausible", counts[2])
	}
}

func TestVASVariantUsesTags(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 32 << 20
	m := machine.New(cfg)
	s := NewVAS(m)
	th := m.Thread(0)
	for k := uint64(1); k <= 30; k++ {
		s.Insert(th, k)
	}
	snap := m.Snapshot()
	if snap.VASAttempts == 0 || snap.TagAdds == 0 {
		t.Fatal("VAS skip list issued no tagged operations")
	}
}

func TestBaselineVariantUsesNoTags(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 32 << 20
	m := machine.New(cfg)
	s := New(m)
	th := m.Thread(0)
	for k := uint64(1); k <= 30; k++ {
		s.Insert(th, k)
	}
	if snap := m.Snapshot(); snap.VASAttempts != 0 || snap.TagAdds != 0 {
		t.Fatal("baseline skip list issued tagged operations")
	}
}
