package serve

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stm"
	"repro/internal/txmap"
	"repro/internal/vacation"
)

// kvPlaneKeys is the served benchmarks' key range: keys are drawn from
// [1, kvPlaneKeys], and the prefill PUTs the even ones.
const kvPlaneKeys = 65536

// treeLen returns the number of keys in tree i of m, read in one
// transaction of tm on w's thread. It takes w.mu as a request does, so it
// may run while the server is taking traffic.
func (w *Worker) treeLen(tm *stm.TM, m *txmap.Map, i int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	tm.Run(w.th, func(tx *stm.Tx) { n = m.TreeSize(tx, i) })
	return n
}

// collidingKeys returns the first n keys, counting up from 1, that fall in
// the trees of m holding the keys of. Traffic over them grows those trees
// deep enough to rotate, transplant and fix up after deletes, where keys
// spread over every tree would leave nearly each tree holding one key.
func collidingKeys(m *txmap.Map, n int, of ...uint64) (keys []uint64, trees []int) {
	for _, k := range of {
		trees = append(trees, m.TreeOf(k))
	}
	for k := uint64(1); len(keys) < n; k++ {
		if slices.Contains(trees, m.TreeOf(k)) {
			keys = append(keys, k)
		}
	}
	return keys, trees
}

// prefilledEngine builds a tagged engine with the served benchmarks' worker
// count and PUTs step, 2·step, ... kvPlaneKeys/2·step on worker 0: with
// step 2, the benchmarks' prefill.
func prefilledEngine(t *testing.T, step uint64) *Engine {
	t.Helper()
	eng, err := newEngine(EngineConfig{Workers: 2, MemBytes: 64 << 20, Tagged: true})
	if err != nil {
		t.Fatal(err)
	}
	w := eng.workers[0]
	out := make([]byte, 0, 64)
	for i := uint64(1); i <= kvPlaneKeys/2; i++ {
		k := i * step
		out = w.Exec(&Request{Op: CmdPut, A: k, B: k}, out[:0])
		if out[0] != 'T' {
			t.Fatalf("prefill PUT %d = %q", k, out)
		}
	}
	return eng
}

// TestKVPlaneSpread checks that the hash spreads the benchmarks' prefill
// (the even keys) and as many sequential keys over the trees so evenly that
// none holds more than maxTreeKeys: a GET then descends at most three
// levels. With 32 768 keys over 32 768 trees, a uniformly random choice of
// tree would leave its fullest tree holding about seven; the Fibonacci hash
// leaves none holding more than two.
func TestKVPlaneSpread(t *testing.T) {
	const maxTreeKeys = 4
	for _, tc := range []struct {
		name string
		step uint64
	}{{"even", 2}, {"sequential", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			eng := prefilledEngine(t, tc.step)
			w := eng.workers[0]
			total, largest := 0, 0
			for i := 0; i < 1<<kvTreeBits; i++ {
				n := w.treeLen(eng.kvTM, eng.kv, i)
				total += n
				largest = max(largest, n)
			}
			if total != kvPlaneKeys/2 {
				t.Fatalf("trees hold %d keys, want %d", total, kvPlaneKeys/2)
			}
			if largest > maxTreeKeys {
				t.Fatalf("largest tree holds %d keys, want at most %d", largest, maxTreeKeys)
			}
		})
	}
}

// TestKVPlaneGetCost runs a seeded GET 80 / PUT 10 / DEL 10 mix, uniform
// over [1, 65536], on the benchmarks' prefill and checks what the hashed
// trees buy: no KV transaction, prefill included, overflows the default 32
// tags, and a GET makes at most maxGetTicks vtags operations (the worker's
// OpClock ticks). With this seed the engine's one tree of 32 768 keys made
// 91.74 vtags ops per GET over 16 007 GETs, and its PUTs and DELs
// overflowed the tag set 1 111 times (876 in the prefill, 235 in the mix;
// no GET did); 1024 trees of about 32 keys made 34.10 per GET, 53.3 per PUT
// and 94.9 per DEL, with no overflow; 32 768 trees of at most two keys make
// 9.95 per GET, 26.3 per PUT and 20.3 per DEL, with no overflow.
func TestKVPlaneGetCost(t *testing.T) {
	const (
		requests    = 20000
		maxGetTicks = 12
	)
	eng := prefilledEngine(t, 2)
	w := eng.workers[0]
	rng := rand.New(rand.NewSource(42))
	out := make([]byte, 0, 64)
	var count, ticks [3]uint64 // GET, PUT, DEL
	for i := 0; i < requests; i++ {
		req := Request{A: uint64(rng.Int63n(kvPlaneKeys)) + 1}
		var op int
		switch draw := rng.Intn(100); {
		case draw < 80:
			req.Op = CmdGet
		case draw < 90:
			req.Op, req.B, op = CmdPut, uint64(rng.Int63n(1<<20))+1, 1
		default:
			req.Op, op = CmdDel, 2
		}
		t0, _ := w.oc.OpClock()
		out = w.Exec(&req, out[:0])
		t1, _ := w.oc.OpClock()
		count[op]++
		ticks[op] += t1 - t0
	}
	st := eng.Stats()
	var per [3]float64
	for op := range per {
		per[op] = float64(ticks[op]) / float64(count[op])
	}
	t.Logf("%d GETs: %.2f vtags ops per GET; %.2f per PUT, %.2f per DEL; %d tag overflows", count[0], per[0], per[1], per[2], st.TagOverflows)
	if st.TagOverflows != 0 {
		t.Fatalf("%d tag overflows: a KV transaction's read set no longer fits the default tag budget", st.TagOverflows)
	}
	if per[0] > maxGetTicks {
		t.Fatalf("%.2f vtags ops per GET, want at most %d", per[0], maxGetTicks)
	}
}

// TestResPlaneCost runs a seeded RESV 70 / BILL 20 / CANCEL 10 mix on the
// served workloads' 1024 relations per kind, customers uniform over
// [1, 32768] and resources over [1, 1024], and checks what the hashed
// reservation tables buy: no transaction, populate included, overflows the
// default 32 tags, and a RESV makes at most maxResvTicks vtags operations
// (the worker's OpClock ticks) over the second half of the run. With this
// seed the engine's one tree per table made 370.5 vtags ops per RESV, 94.5
// per BILL and 159.4 per CANCEL over that half, and its reservation
// transactions overflowed the tag set 824 times (none in the populate);
// customers over 16 384 trees and each kind over 1024 make 68.1, 10.1 and
// 27.3, with no overflow.
func TestResPlaneCost(t *testing.T) {
	const (
		requests     = 20000
		customers    = 32768
		relations    = 1024
		maxResvTicks = 80
	)
	eng, err := newEngine(EngineConfig{Workers: 2, MemBytes: 64 << 20, Tagged: true, Relations: relations, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := eng.workers[0]
	rng := rand.New(rand.NewSource(42))
	out := make([]byte, 0, 64)
	var count, ticks [3]uint64 // RESV, BILL, CANCEL
	for i := 0; i < requests; i++ {
		req := Request{A: uint64(rng.Int63n(customers)) + 1}
		var op int
		switch draw := rng.Intn(100); {
		case draw < 70:
			req.Op, req.B, req.C = CmdResv, uint64(rng.Intn(vacation.NumKinds)), uint64(rng.Int63n(relations))+1
		case draw < 90:
			req.Op, op = CmdBill, 1
		default:
			req.Op, op = CmdCancel, 2
		}
		t0, _ := w.oc.OpClock()
		out = w.Exec(&req, out[:0])
		t1, _ := w.oc.OpClock()
		if i >= requests/2 {
			count[op]++
			ticks[op] += t1 - t0
		}
	}
	st := eng.Stats()
	var per [3]float64
	for op := range per {
		per[op] = float64(ticks[op]) / float64(count[op])
	}
	t.Logf("%d RESVs: %.1f vtags ops per RESV; %.1f per BILL, %.1f per CANCEL; %d tag overflows", count[0], per[0], per[1], per[2], st.TagOverflows)
	if st.TagOverflows != 0 {
		t.Fatalf("%d tag overflows: a reservation transaction's read set no longer fits the default tag budget", st.TagOverflows)
	}
	if per[0] > maxResvTicks {
		t.Fatalf("%.1f vtags ops per RESV, want at most %d", per[0], maxResvTicks)
	}
}
