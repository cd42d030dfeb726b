package kcas

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vtags"
)

func TestKCASBasic(t *testing.T) {
	mem := vtags.New(1<<20, 1)
	g := New(mem)
	th := mem.Thread(0)
	a, b := mem.Alloc(1), mem.Alloc(1)
	th.Store(a, 1)
	th.Store(b, 2)

	if !g.KCAS(th, []Entry{{a, 1, 10}, {b, 2, 20}}) {
		t.Fatal("uncontended 2-CAS failed")
	}
	if g.Read(th, a) != 10 || g.Read(th, b) != 20 {
		t.Fatal("2-CAS did not write both words")
	}
	if g.KCAS(th, []Entry{{a, 1, 99}, {b, 20, 99}}) {
		t.Fatal("2-CAS with one stale expectation succeeded")
	}
	if g.Read(th, a) != 10 || g.Read(th, b) != 20 {
		t.Fatal("failed 2-CAS left residue")
	}
}

func TestKCASEmptyAndSingle(t *testing.T) {
	mem := vtags.New(1<<20, 1)
	g := New(mem)
	th := mem.Thread(0)
	if !g.KCAS(th, nil) {
		t.Fatal("empty kCAS should trivially succeed")
	}
	a := mem.Alloc(1)
	if !g.KCAS(th, []Entry{{a, 0, 5}}) || g.Read(th, a) != 5 {
		t.Fatal("1-CAS failed")
	}
}

func TestKCASDuplicateAddressPanics(t *testing.T) {
	mem := vtags.New(1<<20, 1)
	g := New(mem)
	th := mem.Thread(0)
	a := mem.Alloc(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate address accepted")
		}
	}()
	g.KCAS(th, []Entry{{a, 0, 1}, {a, 0, 2}})
}

func TestKCASValueRangePanics(t *testing.T) {
	mem := vtags.New(1<<20, 1)
	g := New(mem)
	th := mem.Thread(0)
	a := mem.Alloc(1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range value accepted")
		}
	}()
	g.KCAS(th, []Entry{{a, 0, MaxValue + 1}})
}

func TestReadHelpsInProgress(t *testing.T) {
	// After a committed kCAS, plain loads may still see descriptors briefly
	// mid-operation; Read must always return a logical value.
	mem := vtags.New(1<<20, 2)
	g := New(mem)
	th := mem.Thread(0)
	a := mem.Alloc(1)
	for i := uint64(0); i < 50; i++ {
		if !g.KCAS(th, []Entry{{a, i, i + 1}}) {
			t.Fatalf("kCAS %d failed", i)
		}
		if v := g.Read(th, a); v != i+1 {
			t.Fatalf("Read = %d, want %d", v, i+1)
		}
	}
}

// The classic torture test: concurrent k-word increments over disjoint
// random subsets; every word's final value must equal the number of
// successful operations that included it.
func TestKCASConcurrentAtomicity(t *testing.T) {
	const workers, words, per, k = 8, 16, 150, 4
	mem := vtags.New(8<<20, workers)
	g := New(mem)
	addrs := make([]core.Addr, words)
	for i := range addrs {
		addrs[i] = mem.Alloc(1)
	}
	hits := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		hits[w] = make([]int64, words)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := mem.Thread(w)
			rng := rand.New(rand.NewSource(int64(w + 77)))
			for i := 0; i < per; i++ {
				idxs := rng.Perm(words)[:k]
				for {
					entries := make([]Entry, k)
					for j, idx := range idxs {
						old := g.Read(th, addrs[idx])
						entries[j] = Entry{addrs[idx], old, old + 1}
					}
					if g.KCAS(th, entries) {
						for _, idx := range idxs {
							hits[w][idx]++
						}
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	th := mem.Thread(0)
	for i := range addrs {
		var want int64
		for w := 0; w < workers; w++ {
			want += hits[w][i]
		}
		if got := g.Read(th, addrs[i]); got != uint64(want) {
			t.Fatalf("word %d = %d, want %d", i, got, want)
		}
	}
}

func TestTaggedKCASFailsFastWithoutWrites(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 1 << 20
	m := machine.New(cfg)
	g := New(m)
	th := m.Thread(0)
	a, b := m.Alloc(1), m.Alloc(1)
	th.Store(a, 1)
	th.Store(b, 2)

	before := m.Snapshot()
	if g.TaggedKCAS(th, []Entry{{a, 99, 100}, {b, 2, 3}}) {
		t.Fatal("tagged kCAS with stale expectation succeeded")
	}
	after := m.Snapshot()
	// Fail-fast property: no stores or CASes were issued.
	if after.Stores != before.Stores || after.CASes != before.CASes {
		t.Fatal("failed tagged kCAS wrote to shared memory")
	}
	if g.Read(th, a) != 1 || g.Read(th, b) != 2 {
		t.Fatal("failed tagged kCAS changed values")
	}
	if !g.TaggedKCAS(th, []Entry{{a, 1, 100}, {b, 2, 3}}) {
		t.Fatal("valid tagged kCAS failed")
	}
	if g.Read(th, a) != 100 || g.Read(th, b) != 3 {
		t.Fatal("tagged kCAS did not commit")
	}
}

func TestSnapshotConsistency(t *testing.T) {
	// Writers keep two words equal (move both together with 2-CAS); the
	// tagged snapshot must never observe them unequal.
	const writers = 3
	mem := vtags.New(8<<20, writers+1)
	g := New(mem)
	a, b := mem.Alloc(1), mem.Alloc(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(th core.Thread) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				va := g.Read(th, a)
				vb := g.Read(th, b)
				if va == vb {
					g.KCAS(th, []Entry{{a, va, va + 1}, {b, vb, vb + 1}})
				}
			}
		}(mem.Thread(w))
	}

	th := mem.Thread(writers)
	consistent := 0
	for i := 0; i < 2000; i++ {
		if vals, ok := g.Snapshot(th, []core.Addr{a, b}, 64); ok {
			if vals[0] != vals[1] {
				close(stop)
				wg.Wait()
				t.Fatalf("snapshot observed torn pair: %v", vals)
			}
			consistent++
		}
	}
	close(stop)
	wg.Wait()
	if consistent == 0 {
		t.Fatal("no snapshot ever validated")
	}
}

// TestSnapshotHelpDoesNotHideWrite replays the interleaving behind a torn
// tagged snapshot: the reader reads a, a writer installs its descriptor on a
// and b, and the reader, reading b, helps the writer finish — its own CAS on
// a must not revive the tag the writer's install evicted.
func TestSnapshotHelpDoesNotHideWrite(t *testing.T) {
	mems := map[string]core.Memory{
		"vtags":   vtags.New(1<<20, 2),
		"machine": machine.New(machine.DefaultConfig(2)),
	}
	for name, mem := range mems {
		t.Run(name, func(t *testing.T) {
			g := New(mem)
			w, r := mem.Thread(0), mem.Thread(1)
			a, b := mem.Alloc(1), mem.Alloc(1)
			w.Store(a, 5)
			w.Store(b, 5)

			r.ClearTagSet()
			r.AddTag(a, core.WordSize)
			r.AddTag(b, core.WordSize)
			va := g.Read(r, a)

			// The writer's phase 1, already decided: both words hold its
			// descriptor.
			d := w.Alloc(kEntries + 2*kEntryW)
			w.Store(d.Plus(kStatus), stSucceeded)
			w.Store(d.Plus(kCount), 2)
			for i, e := range []Entry{{a, 5, 6}, {b, 5, 6}} {
				base := kEntries + i*kEntryW
				w.Store(d.Plus(base+0), uint64(e.Addr))
				w.Store(d.Plus(base+1), e.Old)
				w.Store(d.Plus(base+2), e.New)
			}
			w.Store(a, uint64(d)|kcasMark)
			w.Store(b, uint64(d)|kcasMark)

			vb := g.Read(r, b) // helps: r's own CASes write a and b
			if va != 5 || vb != 6 {
				t.Fatalf("reads = %d, %d, want 5, 6", va, vb)
			}
			if r.Validate() {
				t.Fatal("torn pair (5, 6) validated")
			}
		})
	}
}

func TestSnapshotDoubleCollect(t *testing.T) {
	mem := vtags.New(1<<20, 1)
	g := New(mem)
	th := mem.Thread(0)
	a, b := mem.Alloc(1), mem.Alloc(1)
	th.Store(a, 7)
	th.Store(b, 9)
	vals := g.SnapshotDoubleCollect(th, []core.Addr{a, b})
	if vals[0] != 7 || vals[1] != 9 {
		t.Fatalf("double collect = %v", vals)
	}
}
