// Rangequery demonstrates the paper's "cheap lock-free snapshots": a range
// query over the hand-over-hand-tagged list tags every node in the range
// and linearizes the whole result with one validation. Concurrent writers
// mutate paired keys; the atomic snapshot never observes a half-updated
// pair, while the non-atomic fallback scan can.
package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/machine"
)

func main() {
	cfg := machine.DefaultConfig(3)
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	s := list.NewHoH(m)
	t0 := m.Thread(0)

	// Pairs (10k+1, 10k+2) are always inserted and deleted together.
	const pairs = 5
	for i := 0; i < pairs; i++ {
		s.Insert(t0, uint64(10*i+1))
		s.Insert(t0, uint64(10*i+2))
	}

	// Writers and reader are one parallel phase: RunPhase aligns the clocks
	// and enrols all three in lax clock synchronization before any of them
	// runs, so their simulated-time interleaving is realistic even on a
	// small host. Workers 0 and 1 write; worker 2 reads, then stops them.
	var stop atomic.Bool
	atomicSnaps, failed, torn := 0, 0, 0
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
				failed++
				continue
			}
			atomicSnaps++
			seen := map[uint64]bool{}
			for _, k := range keys {
				seen[k] = true
			}
			// Untouched pairs must always be complete in an atomic snapshot.
			for i := 2; i < pairs; i++ {
				a, b := uint64(10*i+1), uint64(10*i+2)
				if seen[a] != seen[b] {
					torn++
				}
			}
		}
	})

	fmt.Printf("atomic range snapshots: %d ok, %d retries exhausted, %d torn pairs (must be 0)\n",
		atomicSnaps, failed, torn)

	// The fallback scan still answers when the range exceeds the tag
	// budget, with weaker semantics.
	keys := s.RangeScan(t0, 1, 100)
	fmt.Printf("fallback scan sees %d keys: %v\n", len(keys), keys)

	snap := m.Snapshot()
	fmt.Printf("tag activity: %d adds, %d validations (%.2f%% failed)\n",
		snap.TagAdds, snap.Validates, 100*float64(snap.ValidateFails)/float64(snap.Validates))
}
