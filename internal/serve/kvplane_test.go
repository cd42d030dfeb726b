package serve

import (
	"math/rand"
	"testing"

	"repro/internal/stm"
)

// kvPlaneKeys is the served benchmarks' key range: keys are drawn from
// [1, kvPlaneKeys], and the prefill PUTs the even ones.
const kvPlaneKeys = 65536

// partLen returns the number of keys in KV partition p, read in one
// transaction on w's thread. It takes w.mu as a request does, so it may
// run while the server is taking traffic.
func (w *Worker) partLen(p int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	w.eng.kvTM.Run(w.th, func(tx *stm.Tx) { n = w.eng.kv[p].Size(tx) })
	return n
}

// collidingKeys returns the first n keys, counting up from 1, that fall in
// the KV partitions of keys 1 and 2. Traffic over them grows two trees deep
// enough to rotate, transplant and fix up after deletes, where keys spread
// over every partition would leave nearly each tree holding one key.
func collidingKeys(n int) (keys []uint64, parts []int) {
	parts = []int{kvPart(1), kvPart(2)}
	for k := uint64(1); len(keys) < n; k++ {
		if p := kvPart(k); p == parts[0] || p == parts[1] {
			keys = append(keys, k)
		}
	}
	return keys, parts
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
// (the even keys) and as many sequential keys over every partition, the
// largest holding at most twice the mean. The even keys fail a hash that
// keeps the low bits (key & mask fills only half the partitions).
func TestKVPlaneSpread(t *testing.T) {
	for _, tc := range []struct {
		name string
		step uint64
	}{{"even", 2}, {"sequential", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			eng := prefilledEngine(t, tc.step)
			w := eng.workers[0]
			total, largest := 0, 0
			for p := range eng.kv {
				n := w.partLen(p)
				if n == 0 {
					t.Fatalf("partition %d is empty", p)
				}
				total += n
				largest = max(largest, n)
			}
			if total != kvPlaneKeys/2 {
				t.Fatalf("partitions hold %d keys, want %d", total, kvPlaneKeys/2)
			}
			mean := float64(total) / float64(len(eng.kv))
			if float64(largest) > 2*mean {
				t.Fatalf("largest partition holds %d keys, more than twice the mean %.1f", largest, mean)
			}
		})
	}
}

// TestKVPlaneGetCost runs a seeded GET 80 / PUT 10 / DEL 10 mix, uniform
// over [1, 65536], on the benchmarks' prefill and checks what the partition
// buys: no KV transaction, prefill included, overflows the default 32 tags,
// and a GET makes at most half the vtags operations (the worker's OpClock
// ticks) it made over one tree. With this seed the engine's one tree of
// 32 768 keys (the commit before the partition) made 91.74 vtags ops per GET
// over 16 007 GETs, and its PUTs and DELs overflowed the tag set 1 111 times
// (876 in the prefill, 235 in the mix; no GET did); 1024 partitions make
// 34.10 and 0.
func TestKVPlaneGetCost(t *testing.T) {
	const (
		requests         = 20000
		oneTreeGetTicks  = 91.74 // vtags ops per GET on one tree, measured as above
		maxGetTicksRatio = 0.5
	)
	eng := prefilledEngine(t, 2)
	w := eng.workers[0]
	rng := rand.New(rand.NewSource(42))
	out := make([]byte, 0, 64)
	gets, getTicks := 0, uint64(0)
	for i := 0; i < requests; i++ {
		req := Request{A: uint64(rng.Int63n(kvPlaneKeys)) + 1}
		switch draw := rng.Intn(100); {
		case draw < 80:
			req.Op = CmdGet
		case draw < 90:
			req.Op, req.B = CmdPut, uint64(rng.Int63n(1<<20))+1
		default:
			req.Op = CmdDel
		}
		t0, _ := w.oc.OpClock()
		out = w.Exec(&req, out[:0])
		if req.Op == CmdGet {
			t1, _ := w.oc.OpClock()
			gets++
			getTicks += t1 - t0
		}
	}
	st := eng.Stats()
	perGet := float64(getTicks) / float64(gets)
	t.Logf("%d GETs: %.2f vtags ops per GET; %d tag overflows", gets, perGet, st.TagOverflows)
	if st.TagOverflows != 0 {
		t.Fatalf("%d tag overflows: a KV transaction's read set no longer fits the default tag budget", st.TagOverflows)
	}
	if perGet > maxGetTicksRatio*oneTreeGetTicks {
		t.Fatalf("%.2f vtags ops per GET, want at most %.2f (half of one tree's %.2f)", perGet, maxGetTicksRatio*oneTreeGetTicks, float64(oneTreeGetTicks))
	}
}
