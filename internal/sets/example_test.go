package sets_test

import (
	"fmt"
	"slices"

	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/sets"
	"repro/internal/workload"
)

// Example runs every set in the catalogue under the same update-heavy
// workload (35% inserts, 35% deletes) on four simulated cores, then
// checks each quiescent set: its keys are sorted, and their number is the
// prefill plus the inserts minus the deletes that succeeded.
// memtag-bench compares the sets' throughput and coherence traffic.
func Example() {
	for _, e := range sets.All() {
		cfg := machine.DefaultConfig(4)
		cfg.MemBytes = 64 << 20
		if e.MachineTags > 0 {
			cfg.MaxTags = e.MachineTags
		}
		m := machine.New(cfg)
		s := e.New(m)
		wl := workload.Config{
			Threads: 4, KeyRange: 256, PrefillSize: 128,
			OpsPerThread: 200, Mix: workload.Update3535, Seed: 7,
		}
		fill := workload.Prefill(m, s, wl).TotalFill
		c := workload.Run(m, s, wl)
		keys := s.(intset.Snapshotter).Keys(m.Thread(0))
		ok := slices.IsSorted(keys) && len(keys) == fill+int(c.Inserts)-int(c.Deletes)
		fmt.Printf("%-14s sorted and counted: %v\n", e.Name, ok)
	}
	// Output:
	// harris-list    sorted and counted: true
	// vas-list       sorted and counted: true
	// hoh-list       sorted and counted: true
	// lock-list      sorted and counted: true
	// elided-list    sorted and counted: true
	// llx-tree       sorted and counted: true
	// hoh-tree       sorted and counted: true
	// elided-tree    sorted and counted: true
	// llx-bst        sorted and counted: true
	// hoh-bst        sorted and counted: true
	// llx-chromatic  sorted and counted: true
	// hoh-chromatic  sorted and counted: true
	// skiplist-cas   sorted and counted: true
	// skiplist-vas   sorted and counted: true
	// norec-set      sorted and counted: true
	// tagged-set     sorted and counted: true
}
