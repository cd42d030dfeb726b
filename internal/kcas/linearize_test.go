package kcas

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/linearizability"
	"repro/internal/schedfuzz"
	"repro/internal/vtags"
)

// kcasWords is the number of kCAS-managed words under test. Each lives on
// its own cache line (Alloc is line-aligned) so tagging and coherence
// pressure hit distinct lines. Values stay below 1<<16 so the whole
// machine state packs into one uint64 for the checker.
const kcasWords = 4

func field(s uint64, i uint64) uint64      { return (s >> (16 * i)) & 0xffff }
func setField(s, i, v uint64) uint64       { return (s &^ (0xffff << (16 * i))) | (v&0xffff)<<(16*i) }
func packPair(a, b uint64) uint64          { return a<<16 | b&0xffff }
func unpackPair(p uint64) (uint64, uint64) { return p >> 16, p & 0xffff }

// kcasModel is a 4x16-bit multi-register machine. OpRead(Key=i, Out=v)
// requires word i to hold v. OpCAS records one committed double-increment
// kCAS: Key packs the two word indices (i<<8|j), Out packs the old values
// the committed attempt observed (oldI<<16|oldJ); the step requires both
// words to hold those values and bumps each by one.
func kcasModel() linearizability.Model {
	return linearizability.Model{
		Name: "kcas-4x16",
		Init: 0,
		Step: func(s uint64, e *history.Event) (uint64, bool) {
			switch e.Op {
			case history.OpRead:
				return s, field(s, e.Key) == e.Out
			case history.OpCAS:
				i, j := e.Key>>8, e.Key&0xff
				oldI, oldJ := unpackPair(e.Out)
				if field(s, i) != oldI || field(s, j) != oldJ {
					return s, false
				}
				s = setField(s, i, oldI+1)
				return setField(s, j, oldJ+1), true
			}
			return s, false
		},
		Format: func(e *history.Event) string {
			if e.Op == history.OpRead {
				return fmt.Sprintf("read(w%d) -> %d", e.Key, e.Out)
			}
			oldI, oldJ := unpackPair(e.Out)
			return fmt.Sprintf("kcas-inc(w%d:%d->%d, w%d:%d->%d)",
				e.Key>>8, oldI, oldI+1, e.Key&0xff, oldJ, oldJ+1)
		},
	}
}

// runKCASLinearize drives threads workers over kcasWords single-line words,
// mixing snapshot-style reads with two-word increment kCAS operations
// issued through op (plain KCAS or TaggedKCAS), and checks the recorded
// history against the packed multi-register model. Failed kCAS attempts
// are retried inside one recorded operation: TaggedKCAS may fail spuriously
// under tag eviction, so a bare failure is not a checkable outcome, but the
// eventually-committed attempt is.
func runKCASLinearize(t *testing.T, seed int64, tagged bool) {
	t.Helper()
	const threads, opsPer = 4, 160
	fuzz := schedfuzz.Default(seed)
	mem := schedfuzz.Wrap(vtags.New(1<<20, threads), fuzz)
	g := New(mem)
	addrs := make([]core.Addr, kcasWords)
	for i := range addrs {
		addrs[i] = mem.Alloc(1)
	}
	rec := history.NewRecorder(threads, opsPer)

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := mem.Thread(w)
			sh := rec.Shard(w)
			rng := rand.New(rand.NewSource(seed + int64(w)*7919 + 1))
			for n := 0; n < opsPer; n++ {
				if rng.Intn(2) == 0 {
					i := uint64(rng.Intn(kcasWords))
					idx := sh.Begin(history.OpRead, i, 0)
					v := g.Read(th, addrs[i])
					sh.End(idx, true, v)
					continue
				}
				i := rng.Intn(kcasWords)
				j := rng.Intn(kcasWords - 1)
				if j >= i {
					j++
				}
				idx := sh.Begin(history.OpCAS, uint64(i)<<8|uint64(j), 0)
				var oldI, oldJ uint64
				for {
					oldI, oldJ = g.Read(th, addrs[i]), g.Read(th, addrs[j])
					es := []Entry{
						{Addr: addrs[i], Old: oldI, New: oldI + 1},
						{Addr: addrs[j], Old: oldJ, New: oldJ + 1},
					}
					var ok bool
					if tagged {
						ok = g.TaggedKCAS(th, es)
					} else {
						ok = g.KCAS(th, es)
					}
					if ok {
						break
					}
				}
				sh.End(idx, true, packPair(oldI, oldJ))
			}
		}()
	}
	wg.Wait()

	out := linearizability.Check(kcasModel(), rec.Events())
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLinearizableKCAS checks the baseline software kCAS.
func TestLinearizableKCAS(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		runKCASLinearize(t, seed, false)
	}
}

// TestLinearizableTaggedKCAS checks the tag-accelerated kCAS under forced
// spurious evictions, which exercise its fail-fast (and occasionally
// spuriously failing) pre-validation path.
func TestLinearizableTaggedKCAS(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		runKCASLinearize(t, seed, true)
	}
}
