package machine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
)

// TestDirStateIs4Bytes pins the per-line directory word: it exists once per
// touched line, beside the masks and the line's 64 bytes of data.
func TestDirStateIs4Bytes(t *testing.T) {
	if got := unsafe.Sizeof(dirState{}); got != 4 {
		t.Fatalf("unsafe.Sizeof(dirState{}) = %d, want 4", got)
	}
}

// TestDirStateFields round-trips the owner and mark fields through every
// edge value: release writes them, and neither a later lock, a plain
// unlock, nor the lock held between them disturbs either field.
func TestDirStateFields(t *testing.T) {
	vals := []int{-1, 0, core.MaxCores - 1}
	want := func(s *dirState, step string, owner, marked int, held bool) {
		t.Helper()
		w := atomic.LoadUint32(&s.word)
		if s.owner() != owner || s.marked() != marked || (w&dirLockBit != 0) != held {
			t.Fatalf("%s: word %#x reads owner %d, marked %d, locked %v; want %d, %d, %v",
				step, w, s.owner(), s.marked(), w&dirLockBit != 0, owner, marked, held)
		}
	}
	var s dirState
	want(&s, "zero word", -1, -1, false)
	for _, owner := range vals {
		for _, marked := range vals {
			s.lock()
			s.release(owner, marked)
			want(&s, "released", owner, marked, false)
			s.lock()
			want(&s, "locked", owner, marked, true)
			s.unlock()
			want(&s, "unlocked", owner, marked, false)
		}
	}
	s.lock()
	s.release(-1, -1)
	if w := atomic.LoadUint32(&s.word); w != 0 {
		t.Fatalf("word %#x after releasing with no owner and no mark, want 0", w)
	}
}

// TestDirLockProgress drives every path that takes a directory line lock —
// Load, Store, CAS, VAS, IAS and MarkWrite/UnmarkWrites — from eight cores
// on one line, and checks each counter the way must/commits-are-atomic
// does. The test goroutine holds the line's lock when the cores start and
// sleeps before it releases, so they first wait on a holder that is not
// running. The test catches a lock that is never released, or a hang; it
// does not catch a waiter that fails to yield, since async preemption hands
// the P over anyway. CI runs this at -cpu 1,2.
func TestDirLockProgress(t *testing.T) {
	const workers = 8
	each := 300
	if testing.Short() {
		each = 100
	}
	m := testMachine(workers)
	line := m.Alloc(core.WordsPerLine)
	ctrCAS, ctrVAS, ctrIAS, ctrMarked, last := line, line.Plus(1), line.Plus(2), line.Plus(3), line.Plus(4)
	aux := m.Alloc(1) // IAS invalidates a second tagged line too
	// marker admits one marking core at a time (core.Thread.MarkWrite's
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
	d := m.dirAt(line.Line())
	d.lock()
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
	d.unlock()
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
		s := m.dirAt(a.Line())
		if w := atomic.LoadUint32(&s.word); w&dirLockBit != 0 || s.marked() != -1 {
			t.Errorf("line %d left with word %#x: locked or marked", a.Line(), w)
		}
	}
}
