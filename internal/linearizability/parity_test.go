package linearizability

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/history"
)

// The verdict-parity corpus: seeded random histories of three kinds, each
// either correct by construction (every operation takes effect atomically
// at its response) or spoiled by rare planted faults. The golden digests
// and violation counts below were recorded by running this file against
// the checker it replaced, which kept strict serializability in a search
// of its own. Do not edit a golden value to make the test pass: a changed
// digest means a changed verdict (or, for the one-word models, a changed
// counterexample).

const paritySeeds = 4000

// parityGolden holds, per history kind, the FNV-64a digest of every
// history's fingerprint in seed order and the number of violations.
var parityGolden = map[string]struct {
	digest     uint64
	violations int
}{
	"tx":      {0xfdce06b26b6ba6cb, 1202},
	"set":     {0x46b0451364bb5b53, 1346},
	"counter": {0x979c88b211139521, 1234},
}

// parityHistory draws the shape every kind shares: 2–4 workers and 6–35
// steps, each step opening an operation on a random idle worker or closing
// that worker's open one. close applies the operation and records its
// response; operations still open at the end stay pending.
func parityHistory(seed int64, open func(rng *rand.Rand, w int, s *history.Shard) int, close func(rng *rand.Rand, w int, s *history.Shard, idx int)) *history.Recorder {
	rng := rand.New(rand.NewSource(seed))
	workers := 2 + rng.Intn(3)
	rec := history.NewRecorder(workers, 36)
	pending := make([]int, workers)
	for w := range pending {
		pending[w] = -1
	}
	for steps := 6 + rng.Intn(30); steps > 0; steps-- {
		w := rng.Intn(workers)
		if pending[w] < 0 {
			pending[w] = open(rng, w, rec.Shard(w))
			continue
		}
		close(rng, w, rec.Shard(w), pending[w])
		pending[w] = -1
	}
	return rec
}

// txParityHistory records transactions over four addresses. Each applies
// atomically at its End; 1 in 8 aborts, and 1 in 25 reads reports the
// address's previous value instead of its current one.
func txParityHistory(seed int64) *history.Recorder {
	var mem, prev [4]uint64
	next := uint64(1)
	return parityHistory(seed,
		func(_ *rand.Rand, _ int, s *history.Shard) int { return s.BeginTx() },
		func(rng *rand.Rand, w int, s *history.Shard, idx int) {
			commit := rng.Intn(8) != 0
			for a := range mem {
				if rng.Intn(2) == 0 {
					v := mem[a]
					if rng.Intn(25) == 0 {
						v = prev[a]
					}
					s.TxRead(idx, uint64(a), v)
				}
			}
			for a := range mem {
				if rng.Intn(3) == 0 {
					s.TxWrite(idx, uint64(a), next)
					if commit {
						prev[a], mem[a] = mem[a], next
					}
					next++
				}
			}
			s.End(idx, commit, 0)
		})
}

// setParityHistory records Insert/Delete/Contains over three keys, 1 in 20
// with its result flipped.
func setParityHistory(seed int64) []history.Event {
	var member [3]bool
	var ops [4]uint8
	var keys [4]uint64
	return parityHistory(seed,
		func(rng *rand.Rand, w int, s *history.Shard) int {
			ops[w], keys[w] = uint8(rng.Intn(3)), uint64(rng.Intn(3))
			return s.Begin(ops[w], keys[w], 0)
		},
		func(rng *rand.Rand, w int, s *history.Shard, idx int) {
			k := keys[w]
			ok := member[k]
			switch ops[w] {
			case history.OpInsert:
				ok = !member[k]
				member[k] = true
			case history.OpDelete:
				member[k] = false
			}
			if rng.Intn(20) == 0 {
				ok = !ok
			}
			s.End(idx, ok, 0)
		}).Events()
}

// counterParityHistory records fetch-and-increments and reads of one
// counter, 1 in 20 with its output off by one.
func counterParityHistory(seed int64) []history.Event {
	var count uint64
	var ops [4]uint8
	return parityHistory(seed,
		func(rng *rand.Rand, w int, s *history.Shard) int {
			ops[w] = history.OpRead
			if rng.Intn(2) == 0 {
				ops[w] = history.OpIncGet
			}
			return s.Begin(ops[w], 0, 0)
		},
		func(rng *rand.Rand, w int, s *history.Shard, idx int) {
			out := count
			if ops[w] == history.OpIncGet {
				count++
			}
			if rng.Intn(20) == 0 {
				out++
			}
			s.End(idx, true, out)
		}).Events()
}

// TestVerdictParity checks every corpus history and compares the digest of
// their fingerprints with the golden: the verdict for transactions, the
// verdict plus the counterexample's prefix and window event for event for
// the one-word models.
func TestVerdictParity(t *testing.T) {
	kinds := []struct {
		name  string
		check func(seed int64) string
	}{
		{"tx", func(seed int64) string {
			out := CheckSerializable(txParityHistory(seed))
			return fmt.Sprint(out.OK, out.Inconclusive)
		}},
		{"set", func(seed int64) string {
			out := CheckSet(setParityHistory(seed))
			return fmt.Sprint(out.OK, out.Inconclusive, out.Best, out.Window)
		}},
		{"counter", func(seed int64) string {
			out := Check(CounterModel(0), counterParityHistory(seed))
			return fmt.Sprint(out.OK, out.Inconclusive, out.Best, out.Window)
		}},
	}
	for _, k := range kinds {
		h := fnv.New64a()
		violations := 0
		for seed := int64(1); seed <= paritySeeds; seed++ {
			fp := k.check(seed)
			if fp[:4] != "true" {
				violations++
			}
			fmt.Fprintln(h, fp)
		}
		got, want := h.Sum64(), parityGolden[k.name]
		t.Logf("%s: digest %#x, %d / %d violations", k.name, got, violations, paritySeeds)
		if got != want.digest || violations != want.violations {
			t.Errorf("%s: digest %#x with %d violations, golden %#x with %d", k.name, got, violations, want.digest, want.violations)
		}
	}
}
