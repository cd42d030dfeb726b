package machine

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// checkDirectoryInvariants validates, while quiescent, the coherence
// authority's structural invariants for the given lines:
//
//   - owner >= 0 implies sharers == {owner} (exclusivity);
//   - every tagger is a sharer (a tag rides on a resident line);
//   - sharer sets only contain existing cores.
func checkDirectoryInvariants(t *testing.T, m *Machine, lines []uint64) {
	t.Helper()
	for _, l := range lines {
		sharers, owner, taggers := m.DebugLine(core.Line(l))
		if owner >= 0 && !slices.Equal(sharers, []int{owner}) {
			t.Fatalf("line %d: owner %d but sharers %v", l, owner, sharers)
		}
		for _, c := range taggers {
			if !slices.Contains(sharers, c) {
				t.Fatalf("line %d: taggers %v not a subset of sharers %v", l, taggers, sharers)
			}
		}
		if n := len(sharers); n > 0 && sharers[n-1] >= len(m.threads) {
			t.Fatalf("line %d: sharer %d beyond core count %d", l, sharers[n-1], len(m.threads))
		}
	}
}

// TestDirectoryInvariantsUnderRandomOps hammers random lines from several
// cores with every operation type, then checks the directory.
func TestDirectoryInvariantsUnderRandomOps(t *testing.T) {
	const cores, words, opsPer = 6, 24, 400
	m := testMachine(cores)
	addrs := make([]core.Addr, words)
	lines := make([]uint64, words)
	for i := range addrs {
		addrs[i] = m.Alloc(1)
		lines[i] = uint64(addrs[i].Line())
	}

	var wg sync.WaitGroup
	for w := 0; w < cores; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := m.Thread(w)
			rng := rand.New(rand.NewSource(int64(w * 31)))
			for i := 0; i < opsPer; i++ {
				a := addrs[rng.Intn(words)]
				switch rng.Intn(10) {
				case 0, 1, 2:
					th.Load(a)
				case 3, 4:
					th.Store(a, uint64(i))
				case 5:
					th.CAS(a, uint64(rng.Intn(4)), uint64(i))
				case 6:
					th.AddTag(a, 8)
				case 7:
					th.RemoveTag(a, 8)
				case 8:
					th.Validate()
				default:
					if rng.Intn(2) == 0 {
						th.VAS(a, uint64(i))
					} else {
						th.IAS(a, uint64(i))
					}
					th.ClearTagSet()
				}
			}
			th.ClearTagSet()
		}(w)
	}
	wg.Wait()
	checkDirectoryInvariants(t, m, lines)
}
