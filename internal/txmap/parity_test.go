package txmap_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/reclaim"
	"repro/internal/stm"
	"repro/internal/txmap"
)

// The traffic golden test. Each TM runs one seeded single-core
// Get/Put/Delete script over the map on the simulated machine, and the
// machine's full Stats plus a digest of its event trace (one event per cache
// access and tag operation, with its line and cycle) must equal the rows in
// trafficGolden. A refactor of the tree that keeps every access's address
// and order keeps the rows; one that moves traffic shows here at once. If a
// change moves it on purpose, re-record the row and say why in the commit.

// traceDigest folds every machine event into one FNV-1a hash.
type traceDigest struct {
	sum uint64
	n   uint64
}

func (d *traceDigest) Trace(e core.Event) {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range [...]uint64{d.sum, uint64(e.Kind), uint64(e.Core), uint64(int64(e.Target)), e.Line, e.Cycle} {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	d.sum = h.Sum64()
	d.n++
}

// trafficRow is what one seeded run left on the simulated machine.
type trafficRow struct {
	stats  string
	digest uint64
	events uint64
}

type trafficVariant struct {
	name string
	tm   func(core.Memory) *stm.TM
	pool bool // allocate and retire nodes through a reclamation pool
}

var trafficVariants = []trafficVariant{
	{"norec", stm.NewNOrec, false},
	{"tagged", stm.NewTagged, false},
	{"tagged/pool", stm.NewTagged, true},
}

// trafficRun drives the script and returns what the machine saw: three
// phases over keys 1..512 — grow, churn, shrink (insert share 70/40/10 of
// the 80 % that write) — so both fixups run every case on both sides.
func trafficRun(t *testing.T, v trafficVariant) trafficRow {
	t.Helper()
	m := machine.New(machine.DefaultConfig(1))
	tm := v.tm(m)
	mp := txmap.New(m)
	if v.pool {
		d := reclaim.NewDomainFor(m)
		m.SetReclaim(d)
		tm.SetReclaim(d)
		mp.SetReclaim(reclaim.NewPool(d, txmap.NodeWords, reclaim.PolicyImmediate))
	}
	var d traceDigest
	m.SetTracer(&d)
	th := m.Thread(0)
	rng := rand.New(rand.NewSource(7))
	model := map[uint64]uint64{}
	const keys, perPhase = 512, 3000
	for phase, insertPct := range []int{70, 40, 10} {
		for i := 0; i < perPhase; i++ {
			k := uint64(rng.Intn(keys)) + 1
			switch r := rng.Intn(100); {
			case r < 20:
				var got uint64
				var ok bool
				tm.Run(th, func(tx *stm.Tx) { got, ok = mp.Get(tx, k) })
				if want, has := model[k]; ok != has || got != want {
					t.Fatalf("%s phase %d op %d: Get(%d) = %d, %v; model %d, %v", v.name, phase, i, k, got, ok, want, has)
				}
			case r < 20+insertPct*80/100:
				val := uint64(phase*perPhase + i)
				var fresh bool
				tm.Run(th, func(tx *stm.Tx) { fresh = mp.Put(tx, k, val, th) })
				if _, has := model[k]; fresh == has {
					t.Fatalf("%s phase %d op %d: Put(%d) = %v, model has it: %v", v.name, phase, i, k, fresh, has)
				}
				model[k] = val
			default:
				var removed bool
				tm.Run(th, func(tx *stm.Tx) { removed = mp.Delete(tx, k) })
				if _, has := model[k]; removed != has {
					t.Fatalf("%s phase %d op %d: Delete(%d) = %v, model %v", v.name, phase, i, k, removed, has)
				}
				delete(model, k)
			}
		}
	}
	m.SetTracer(nil)
	return trafficRow{fmt.Sprintf("%+v", m.Snapshot()), d.sum, d.n}
}

func TestTrafficGolden(t *testing.T) {
	for _, v := range trafficVariants {
		t.Run(v.name, func(t *testing.T) {
			got := trafficRun(t, v)
			if want, ok := trafficGolden[v.name]; !ok || got != want {
				t.Errorf("simulated traffic moved.\n got: %q: {%q, %#x, %d},\nwant: %q: {%q, %#x, %d},",
					v.name, got.stats, got.digest, got.events, v.name, want.stats, want.digest, want.events)
			}
		})
	}
}

// TestTrafficGoldenRepeats guards the guard: the script itself must be
// deterministic, or a golden mismatch would mean nothing.
func TestTrafficGoldenRepeats(t *testing.T) {
	v := trafficVariants[1]
	if a, b := trafficRun(t, v), trafficRun(t, v); a != b {
		t.Fatalf("two runs of %s differ: %+v vs %+v", v.name, a, b)
	}
}
