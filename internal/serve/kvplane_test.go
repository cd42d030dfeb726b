package serve

import (
	"math/rand"
	"testing"

	"repro/internal/stm"
	"repro/internal/txmap"
)

// kvPlaneKeys is the served benchmarks' key range: keys are drawn from
// [1, kvPlaneKeys], and the prefill PUTs the even ones.
const kvPlaneKeys = 65536

// treeLen returns the number of keys in KV tree i, read in one
// transaction on w's thread. It takes w.mu as a request does, so it may
// run while the server is taking traffic.
func (w *Worker) treeLen(i int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	w.eng.kvTM.Run(w.th, func(tx *stm.Tx) { n = w.eng.kv.TreeSize(tx, i) })
	return n
}

// collidingKeys returns the first n keys, counting up from 1, that fall in
// the KV trees of keys 1 and 2. Traffic over them grows two trees deep
// enough to rotate, transplant and fix up after deletes, where keys spread
// over every tree would leave nearly each tree holding one key.
func collidingKeys(kv *txmap.Map, n int) (keys []uint64, trees []int) {
	trees = []int{kv.TreeOf(1), kv.TreeOf(2)}
	for k := uint64(1); len(keys) < n; k++ {
		if i := kv.TreeOf(k); i == trees[0] || i == trees[1] {
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
				n := w.treeLen(i)
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
