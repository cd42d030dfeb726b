package stm

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/linearizability"
	"repro/internal/schedfuzz"
	"repro/internal/vtags"
)

// TestLinearizableCounter checks a shared transactional counter — the
// smallest possible NOrec workload, but one where every pair of writers
// conflicts — against the sequential counter model. inc-and-get records
// the value the committed attempt read (aborted attempts re-execute fn, so
// the captured old value is always from the final, committed execution).
func TestLinearizableCounter(t *testing.T) {
	variants := []struct {
		name  string
		newTM func(core.Memory) *TM
	}{
		{"norec", NewNOrec},
		{"tagged", NewTagged},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 2; seed++ {
				runCounterLinearize(t, seed, v.newTM)
			}
		})
	}
}

func runCounterLinearize(t *testing.T, seed int64, newTM func(core.Memory) *TM) {
	t.Helper()
	const threads, opsPer = 4, 120
	fuzz := schedfuzz.Default(seed)
	mem := schedfuzz.Wrap(vtags.New(1<<20, threads), fuzz)
	tm := newTM(mem)
	ctr := mem.Alloc(1)
	rec := history.NewRecorder(threads, opsPer)

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := mem.Thread(w)
			sh := rec.Shard(w)
			for n := 0; n < opsPer; n++ {
				if (n+w)%3 == 0 {
					idx := sh.Begin(history.OpRead, 0, 0)
					var v uint64
					tm.Run(th, func(tx *Tx) { v = tx.Read(ctr) })
					sh.End(idx, true, v)
					continue
				}
				idx := sh.Begin(history.OpIncGet, 0, 0)
				var old uint64
				tm.Run(th, func(tx *Tx) {
					old = tx.Read(ctr)
					tx.Write(ctr, old+1)
				})
				sh.End(idx, true, old)
			}
		}()
	}
	wg.Wait()

	out := linearizability.Check(linearizability.CounterModel(0), rec.Events())
	if err := out.Err(); err != nil {
		t.Fatalf("counter history: %v", err)
	}
	want := uint64(0)
	for _, e := range rec.Events() {
		if e.Op == history.OpIncGet {
			want++
		}
	}
	th := mem.Thread(0)
	var final uint64
	tm.Run(th, func(tx *Tx) { final = tx.Read(ctr) })
	if final != want {
		t.Fatalf("final counter %d, want %d (lost increments)", final, want)
	}
}
