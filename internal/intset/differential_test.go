package intset_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/abtree"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/list"
	"repro/internal/machine"
	"repro/internal/skiplist"
	"repro/internal/vtags"
)

// opResult is one operation's observable outcome.
type opResult struct {
	Op  int
	Key uint64
	OK  bool
}

// runSequence drives one seeded single-thread operation sequence and
// returns every observable result plus the final snapshot.
func runSequence(mem core.Memory, s intset.Set, seed int64, ops int) (results []opResult, keys []uint64) {
	core.RunPhase(mem, 1, func(_ int, th core.Thread) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < ops; i++ {
			k := intset.KeyMin + uint64(rng.Int63n(48))
			op := rng.Intn(3)
			var ok bool
			switch op {
			case 0:
				ok = s.Insert(th, k)
			case 1:
				ok = s.Delete(th, k)
			default:
				ok = s.Contains(th, k)
			}
			results = append(results, opResult{Op: op, Key: k, OK: ok})
		}
		if snap, ok := s.(intset.Snapshotter); ok {
			keys = snap.Keys(th)
		}
	})
	return results, keys
}

// TestBackendDifferential feeds identical seeded single-thread operation
// sequences through the versioned-emulation backend and the cycle-level
// machine backend and requires bit-identical results: same per-operation
// booleans, same final key set. Logical structure behavior must not depend
// on which backend simulates the memory — caches, coherence and tag
// plumbing may differ in cost only, never in outcome.
func TestBackendDifferential(t *testing.T) {
	structures := []struct {
		name  string
		build func(core.Memory) intset.Set
	}{
		{"list-harris", func(m core.Memory) intset.Set { return list.NewHarris(m) }},
		{"list-vas", func(m core.Memory) intset.Set { return list.NewVAS(m) }},
		{"list-hoh", func(m core.Memory) intset.Set { return list.NewHoH(m) }},
		{"skiplist-cas", func(m core.Memory) intset.Set { return skiplist.New(m) }},
		{"skiplist-vas", func(m core.Memory) intset.Set { return skiplist.NewVAS(m) }},
		{"abtree-llx", func(m core.Memory) intset.Set { return abtree.NewLLX(m, 4, 8) }},
		{"abtree-hoh", func(m core.Memory) intset.Set { return abtree.NewHoH(m, 4, 8) }},
	}
	const ops = 400
	for _, st := range structures {
		st := st
		t.Run(st.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				vm := vtags.New(8<<20, 1)
				vRes, vKeys := runSequence(vm, st.build(vm), seed, ops)

				cfg := machine.DefaultConfig(1)
				cfg.MemBytes = 8 << 20
				mm := machine.New(cfg)
				mRes, mKeys := runSequence(mm, st.build(mm), seed, ops)

				if !reflect.DeepEqual(vRes, mRes) {
					for i := range vRes {
						if vRes[i] != mRes[i] {
							t.Fatalf("seed %d: backends diverged at op %d: vtags %+v, machine %+v",
								seed, i, vRes[i], mRes[i])
						}
					}
				}
				if !reflect.DeepEqual(vKeys, mKeys) {
					t.Fatalf("seed %d: final key sets differ:\nvtags:   %v\nmachine: %v",
						seed, vKeys, mKeys)
				}
			}
		})
	}
}
