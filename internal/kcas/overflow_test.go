package kcas

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/linearizability"
	"repro/internal/schedfuzz"
	"repro/internal/vtags"
)

// TestTaggedKCASOverflowFallsBack pins the advisory-tag contract: a target
// set that exceeds the tag budget must run on the bare software path — and
// still commit or fail on the actual values — never fail spuriously.
// Before the bare-path retry, a 2-word TaggedKCAS under MaxTags(1) could
// not ever commit.
func TestTaggedKCASOverflowFallsBack(t *testing.T) {
	mem := vtags.New(1<<20, 1, vtags.WithMaxTags(1))
	g := New(mem)
	th := mem.Thread(0)
	a, b := mem.Alloc(1), mem.Alloc(1)
	th.Store(a, 10)
	th.Store(b, 20)

	es := []Entry{{Addr: a, Old: 10, New: 11}, {Addr: b, Old: 20, New: 21}}
	committed, bare := g.TaggedKCASPath(th, es)
	if !committed || !bare {
		t.Fatalf("overflowing TaggedKCAS: committed=%v bare=%v, want true/true", committed, bare)
	}
	if n := g.TagOverflowRetries.Load(); n != 1 {
		t.Fatalf("TagOverflowRetries = %d, want 1", n)
	}
	if v := g.Read(th, a); v != 11 {
		t.Fatalf("word a = %d after bare-path commit, want 11", v)
	}
	if v := g.Read(th, b); v != 21 {
		t.Fatalf("word b = %d after bare-path commit, want 21", v)
	}

	// The bare path still compares: a stale expected value past the
	// overflow point (the pre-check never reached it) must fail the kCAS.
	stale := []Entry{{Addr: a, Old: 11, New: 12}, {Addr: b, Old: 20, New: 22}}
	committed, bare = g.TaggedKCASPath(th, stale)
	if committed || !bare {
		t.Fatalf("stale overflowing TaggedKCAS: committed=%v bare=%v, want false/true", committed, bare)
	}
	if v := g.Read(th, a); v != 11 {
		t.Fatalf("word a = %d after failed kCAS, want 11", v)
	}

	// A fitting target set stays on the tagged path.
	one := []Entry{{Addr: a, Old: 11, New: 12}}
	committed, bare = g.TaggedKCASPath(th, one)
	if !committed || bare {
		t.Fatalf("fitting TaggedKCAS: committed=%v bare=%v, want true/false", committed, bare)
	}
	if th.TagCount() != 0 {
		t.Fatal("TaggedKCAS leaked tags")
	}
}

// TestLinearizableTaggedKCASUnderTagPressure is the MaxTags-pressure
// linearizability run: with a one-line tag budget every 2-word TaggedKCAS
// overflows onto the bare path, and the recorded history — bare-path
// operations marked via Arg — must still linearize against the packed
// multi-register model.
func TestLinearizableTaggedKCASUnderTagPressure(t *testing.T) {
	const threads, opsPer = 4, 120
	seed := int64(3)
	fuzz := schedfuzz.Default(seed)
	mem := schedfuzz.Wrap(vtags.New(1<<20, threads, vtags.WithMaxTags(1)), fuzz)
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
				for {
					oldI, oldJ := g.Read(th, addrs[i]), g.Read(th, addrs[j])
					committed, bare := g.TaggedKCASPath(th, []Entry{
						{Addr: addrs[i], Old: oldI, New: oldI + 1},
						{Addr: addrs[j], Old: oldJ, New: oldJ + 1},
					})
					if committed {
						if bare {
							sh.SetArg(idx, 1)
						}
						sh.End(idx, true, packPair(oldI, oldJ))
						break
					}
				}
			}
		}()
	}
	wg.Wait()

	if g.TagOverflowRetries.Load() == 0 {
		t.Fatal("no TaggedKCAS overflowed under MaxTags(1)")
	}
	bareOps := 0
	for _, e := range rec.Events() {
		if e.Op == history.OpCAS && e.Arg == 1 {
			bareOps++
		}
	}
	if bareOps == 0 {
		t.Fatal("no bare-path commit was recorded in the history")
	}
	out := linearizability.Check(kcasModel(), rec.Events())
	if err := out.Err(); err != nil {
		t.Fatalf("%d bare-path commits: %v", bareOps, err)
	}
}
