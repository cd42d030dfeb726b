package vtags

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
)

// TestLockProgress drives every path that takes the line lock — Store, CAS,
// VAS, IAS and MarkWrite/UnmarkWrites — from eight goroutines on one line,
// and checks each counter the way must/commits-are-atomic does. The test
// goroutine holds the line's lock when the workers start and sleeps before
// it releases, so they first wait on a holder that is not running. The test
// catches a lock that is never released, or a hang; it does not catch a
// waiter that fails to yield, since async preemption hands the P over
// anyway. CI runs this at -cpu 1,2.
func TestLockProgress(t *testing.T) {
	const workers = 8
	each := 300
	if testing.Short() {
		each = 100
	}
	m := New(1<<16, workers)
	line := m.Alloc(core.WordsPerLine)
	ctrCAS, ctrVAS, ctrIAS, ctrMarked, last := line, line.Plus(1), line.Plus(2), line.Plus(3), line.Plus(4)
	aux := m.Alloc(1) // IAS bumps a second tagged line too
	// marker admits one marking thread at a time (core.Thread.MarkWrite's
	// one-marker rule); marked counts the increments made under the mark.
	var marker atomic.Bool
	var marked atomic.Uint64
	// A failed commit yields: a marker that was descheduled holding the
	// mark fails every commit on the line until it runs again.
	commit := func(ok bool) bool {
		if !ok {
			runtime.Gosched()
		}
		return ok
	}
	ls := m.lineAt(line.Line())
	ls.lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		core.RunPhase(m, workers, func(w int, th core.Thread) {
			for i := 0; i < each; i++ {
				th.Store(last, uint64(w))
				for v := th.Load(ctrCAS); !th.CAS(ctrCAS, v, v+1); v = th.Load(ctrCAS) {
				}
				for {
					th.ClearTagSet()
					th.AddTag(ctrVAS, core.WordSize)
					if commit(th.VAS(ctrVAS, th.Load(ctrVAS)+1)) {
						break
					}
				}
				for {
					th.ClearTagSet()
					th.AddTag(ctrIAS, core.WordSize)
					th.AddTag(aux, core.WordSize)
					if commit(th.IAS(ctrIAS, th.Load(ctrIAS)+1)) {
						break
					}
				}
				if marker.CompareAndSwap(false, true) {
					th.MarkWrite(line, core.LineSize)
					th.Store(ctrMarked, th.Load(ctrMarked)+1)
					th.UnmarkWrites()
					marked.Add(1)
					marker.Store(false)
				}
			}
			th.ClearTagSet()
		})
	}()
	time.Sleep(time.Millisecond)
	ls.unlock(0)
	<-done

	th := m.Thread(0)
	for _, c := range []struct {
		name string
		a    core.Addr
		want uint64
	}{
		{"CAS counter", ctrCAS, workers * uint64(each)},
		{"VAS counter", ctrVAS, workers * uint64(each)},
		{"IAS counter", ctrIAS, workers * uint64(each)},
		{"counter written under the mark", ctrMarked, marked.Load()},
	} {
		if got := th.Load(c.a); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if v := th.Load(last); v >= workers {
		t.Errorf("last stored word = %d, not a worker's", v)
	}
	for _, a := range []core.Addr{line, aux} {
		if w := m.lineAt(a.Line()).word.Load(); w&(lockBit|markBit) != 0 {
			t.Errorf("line %d left with word %#x: locked or marked", a.Line(), w)
		}
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
