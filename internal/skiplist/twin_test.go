package skiplist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/reclaim"
	"repro/internal/vtags"
)

// hookThread runs a callback before a Load and after a VAS, so a test can
// park one operation at an exact step and run another up to a step of its
// own.
type hookThread struct {
	core.Thread
	beforeLoad func(a core.Addr)
	afterVAS   func(a core.Addr, ok bool)
}

func (h *hookThread) Load(a core.Addr) uint64 {
	if h.beforeLoad != nil {
		h.beforeLoad(a)
	}
	return h.Thread.Load(a)
}

func (h *hookThread) VAS(a core.Addr, v uint64) bool {
	ok := h.Thread.VAS(a, v)
	if h.afterVAS != nil {
		h.afterVAS(a, ok)
	}
	return ok
}

// TestInsertNeverShieldsDeletedTwin replays the interleaving behind the
// vas-skiplist failures of reclaim's differential suite (lost keys, and
// traversals that never end): an Insert(k) whose find saw the old node for k
// unmarked on the way down and marked at the end used to report k absent
// with that node still among its successors, and linked the new node
// directly in front of it. The old node's deleter then ran find(k), stopped
// at the new node on every level, never reached its own, and retired a tower
// that was still linked.
//
// The schedule: the inserter's find is parked at its first bottom-level load
// of the old node's next pointer (the re-check, for a tower of height 1; the
// walk's own load, for a taller tower whose upper levels the walk has
// already passed); the deleter marks every level and is parked right after
// winning the bottom mark; the inserter runs to completion; the deleter
// resumes, unlinks what it can reach, and retires. The retired tower must
// then be unreachable on every level.
func TestInsertNeverShieldsDeletedTwin(t *testing.T) {
	keyOfHeight := func(pred func(h int) bool) uint64 {
		for k := uint64(1); ; k++ {
			if pred(heightForKey(k)) {
				return k
			}
		}
	}
	cases := []struct {
		name string
		key  uint64
		// parkAt is which load of the old node's bottom next pointer, counted
		// within the inserter's find, happens after the deleter's marks.
		parkAt int
	}{
		{"bottom-level twin", keyOfHeight(func(h int) bool { return h == 1 }), 2},
		{"upper-level twin", keyOfHeight(func(h int) bool { return h >= 2 }), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := vtags.New(1<<20, 2)
			d := reclaim.NewDomainFor(m)
			m.SetReclaim(d)
			s := NewVAS(m)
			s.SetReclaim(reclaim.NewPool(d, NodeWords, reclaim.PolicyImmediate))

			plain := m.Thread(0)
			if !s.Insert(plain, tc.key) {
				t.Fatal("setup insert failed")
			}
			old := core.Addr(clearMark(plain.Load(nextAddr(s.head, 0))))
			oldBottom := nextAddr(old, 0)

			marked := make(chan struct{})
			resume := make(chan struct{})
			deleted := make(chan bool)
			deleter := &hookThread{Thread: m.Thread(1)}
			deleter.afterVAS = func(a core.Addr, ok bool) {
				if a == oldBottom && ok {
					deleter.afterVAS = nil
					close(marked)
					<-resume
				}
			}
			inserter := &hookThread{Thread: m.Thread(0)}
			loads := 0
			inserter.beforeLoad = func(a core.Addr) {
				if a != oldBottom {
					return
				}
				if loads++; loads == tc.parkAt {
					go func() { deleted <- s.Delete(deleter, tc.key) }()
					<-marked
				}
			}

			if !s.Insert(inserter, tc.key) {
				t.Fatal("Insert of a key whose only node is marked reported it present")
			}
			close(resume)
			if !<-deleted {
				t.Fatal("the bottom-mark winner's Delete reported false")
			}

			for level := 0; level < MaxLevel; level++ {
				for n := s.head; keyOf(plain, n) != tailKey; n = core.Addr(clearMark(plain.Load(nextAddr(n, level)))) {
					if n == old {
						t.Fatalf("retired tower still linked at level %d", level)
					}
				}
			}
			if !s.Contains(plain, tc.key) {
				t.Fatal("key missing after a completed Insert that followed the Delete's mark")
			}
		})
	}
}
