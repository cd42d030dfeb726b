package vtags

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

func TestVASFailsAfterConflict(t *testing.T) {
	m := New(1<<16, 2)
	t0, t1 := m.Thread(0), m.Thread(1)
	node := m.Alloc(1)
	target := m.Alloc(1)
	t1.AddTag(node, 8)
	t0.Store(node, 9)
	if t1.VAS(target, 1) {
		t.Fatal("VAS succeeded despite conflict")
	}
	if t1.Load(target) != 0 {
		t.Fatal("failed VAS wrote")
	}
}

func TestRemoveTagLatchesConflict(t *testing.T) {
	m := New(1<<16, 2)
	t0, t1 := m.Thread(0), m.Thread(1)
	a := m.Alloc(1)
	t1.AddTag(a, 8)
	t0.Store(a, 1)
	t1.RemoveTag(a, 8)
	if t1.Validate() {
		t.Fatal("conflict forgotten by RemoveTag")
	}
}

// TestForceTagEvictionPerLine pins the targeted-eviction contract mid
// hand-over-hand: evicting a line the thread no longer tags is a no-op
// reporting false, evicting a held tag latches invalidation, and
// ClearTagSet resets the latch.
func TestForceTagEvictionPerLine(t *testing.T) {
	m := New(1<<16, 1)
	th := m.Thread(0).(*Thread)
	a, b, c := m.Alloc(1), m.Alloc(1), m.Alloc(1)

	// Hand-over-hand window {a, b}: slide past a, as a traversal does.
	th.AddTag(a, 8)
	th.AddTag(b, 8)
	if th.TagCount() != 2 {
		t.Fatalf("TagCount = %d, want 2", th.TagCount())
	}
	seen := map[core.Line]bool{}
	for i := 0; i < th.TagCount(); i++ {
		seen[th.TaggedLine(i)] = true
	}
	if !seen[a.Line()] || !seen[b.Line()] {
		t.Fatalf("TaggedLine missed a held tag: %v", seen)
	}
	th.RemoveTag(a, 8)

	// Lines outside the current window cannot be evicted.
	if th.ForceTagEviction(c.Line()) {
		t.Fatal("evicting a never-tagged line reported true")
	}
	if th.ForceTagEviction(a.Line()) {
		t.Fatal("evicting a line the window slid past reported true")
	}
	if !th.Validate() {
		t.Fatal("no-op evictions invalidated the window")
	}

	// Evicting the held tag latches failure until ClearTagSet.
	if !th.ForceTagEviction(b.Line()) {
		t.Fatal("evicting a held tag reported false")
	}
	if th.Validate() {
		t.Fatal("Validate succeeded after targeted eviction")
	}
	th.ClearTagSet()
	th.AddTag(b, 8)
	if !th.Validate() {
		t.Fatal("eviction latch survived ClearTagSet")
	}
}

// TestTagOnRacedFirstTouch guards the line-state pointer a tag entry caches.
// Thread A tags a line in a chunk nobody has touched while thread B stores
// into the same chunk, so the two race to install it; whichever install
// loses, A's entry must point at the state B's stores bump. A later store to
// the tagged line must therefore fail A's validation, and a store to a
// neighbouring line must not.
func TestTagOnRacedFirstTouch(t *testing.T) {
	const chunks = 32
	const chunkBytes = mem.ChunkLines * core.LineSize
	m := New((chunks+1)*chunkBytes, 2)
	ta, tb := m.Thread(0), m.Thread(1)
	base := m.Alloc(chunks * mem.ChunkLines * core.WordsPerLine)

	for k := 0; k < chunks; k++ {
		a := base + core.Addr(k*chunkBytes)
		racing := a // even chunks: B's racing store hits the tagged line itself
		if k%2 == 1 {
			racing = a + core.LineSize
		}
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(2)
		go func() {
			defer done.Done()
			start.Wait()
			ta.AddTag(a, core.WordSize)
		}()
		go func() {
			defer done.Done()
			start.Wait()
			tb.Store(racing, 1)
		}()
		start.Done()
		done.Wait()

		if racing != a && !ta.Validate() {
			t.Fatalf("chunk %d: a store to the neighbouring line failed the tag", k)
		}
		tb.Store(a, 2)
		if ta.Validate() {
			t.Fatalf("chunk %d: store to a line tagged during a raced first touch not detected", k)
		}
		ta.ClearTagSet()
	}
}
