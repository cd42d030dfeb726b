package list_test

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/machine"
)

// ExampleHoH_RangeQuery shows the paper's cheap lock-free snapshots: a
// range query over the hand-over-hand-tagged list tags every node in the
// range and linearizes the whole result with one validation. Two writers
// delete and re-insert the pairs (1, 2) and (11, 12); the pairs above
// them are never touched, so an atomic snapshot must see each of those
// whole.
func ExampleHoH_RangeQuery() {
	const pairs = 5
	cfg := machine.DefaultConfig(3)
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	s := list.NewHoH(m)
	t0 := m.Thread(0)
	for i := uint64(0); i < pairs; i++ {
		s.Insert(t0, 10*i+1)
		s.Insert(t0, 10*i+2)
	}

	// Workers 0 and 1 write; worker 2 reads, then stops them.
	var stop atomic.Bool
	torn := 0
	core.RunPhase(m, 3, func(w int, th core.Thread) {
		if w < 2 {
			base := uint64(10 * w)
			for !stop.Load() {
				s.Delete(th, base+1)
				s.Delete(th, base+2)
				s.Insert(th, base+1)
				s.Insert(th, base+2)
			}
			return
		}
		defer stop.Store(true)
		for i := 0; i < 400; i++ {
			keys, ok := s.RangeQuery(th, 1, 100, 6)
			if !ok {
				continue // retries exhausted
			}
			seen := map[uint64]bool{}
			for _, k := range keys {
				seen[k] = true
			}
			for p := uint64(2); p < pairs; p++ {
				if seen[10*p+1] != seen[10*p+2] {
					torn++
				}
			}
		}
	})
	fmt.Println("torn pairs in atomic snapshots:", torn)

	// The fallback scan answers ranges past the tag budget, with weaker
	// semantics; once the writers stop it sees every pair.
	fmt.Println("fallback scan:", s.RangeScan(t0, 1, 100))
	// Output:
	// torn pairs in atomic snapshots: 0
	// fallback scan: [1 2 11 12 21 22 31 32 41 42]
}
