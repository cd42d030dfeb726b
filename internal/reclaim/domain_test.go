package reclaim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// slots returns handle h's announcement table as plain values.
func slots(h *Handle) []uint64 {
	out := make([]uint64, len(h.ann))
	for i := range h.ann {
		out[i] = h.ann[i].Load()
	}
	return out
}

// The owner's sweeps stop at its high-water mark, but slots are still never
// compacted: a Retract in the middle of the set leaves a hole, and the next
// Announce fills that hole rather than growing the swept prefix.
func TestAnnounceReusesRetractedSlot(t *testing.T) {
	h := NewDomain(1, 4).Handle(0)
	h.Announce(10)
	h.Announce(11)
	h.Announce(12)
	h.Retract(11)
	h.Announce(13)
	want := []uint64{11, 14, 13, 0} // line+1; 13 took 11's slot
	if got := slots(h); !slices.Equal(got, want) {
		t.Fatalf("slots = %v, want %v", got, want)
	}
	if h.annHigh != 3 {
		t.Fatalf("annHigh = %d, want 3", h.annHigh)
	}
}

// RetractAll runs three times per transaction attempt (begin, commit, the
// attempt's deferred clear), mostly on an empty set: that case must not
// touch the shared table at all.
func TestRetractAllOnEmptySetStoresNothing(t *testing.T) {
	h := NewDomain(1, 4).Handle(0)
	h.Announce(7)
	h.RetractAll()
	// Poison a slot above the mark: a sweep that still covered the whole
	// table would clear it.
	h.ann[3].Store(99)
	h.RetractAll()
	h.Retract(98)
	if got := h.ann[3].Load(); got != 99 {
		t.Fatalf("RetractAll/Retract on an empty set wrote slot 3 (now %d)", got)
	}
}

func TestAnnounceFullTablePanics(t *testing.T) {
	h := NewDomain(1, 3).Handle(0)
	for l := core.Line(1); l <= 3; l++ {
		h.Announce(l)
	}
	h.Retract(2)
	h.Announce(4) // the hole keeps a full-looking table usable
	defer func() {
		if recover() == nil {
			t.Fatal("Announce past maxTags did not panic")
		}
	}()
	h.Announce(5)
}

// TestAnnouncedMatchesModel runs a random Announce/Retract/RetractAll script
// on two handles against a plain set per handle and checks after every step
// that the scanner's view — Domain.announced, which reads every slot of every
// handle and knows nothing of the owners' high-water marks — agrees with it.
func TestAnnouncedMatchesModel(t *testing.T) {
	const maxTags, lines = 8, 12
	rng := rand.New(rand.NewSource(15))
	d := NewDomain(2, maxTags)
	model := [2]map[core.Line]bool{{}, {}}
	for step := 0; step < 20000; step++ {
		who := rng.Intn(2)
		h, set := d.Handle(who), model[who]
		l := core.Line(rng.Intn(lines))
		switch r := rng.Intn(100); {
		case r < 3:
			h.RetractAll()
			clear(set)
		case r < 50:
			// As the backend does: a line is announced at most once, and
			// never past the tag budget.
			if !set[l] && len(set) < maxTags {
				h.Announce(l)
				set[l] = true
			}
		default:
			h.Retract(l) // a line not in the set is a no-op
			delete(set, l)
		}
		for q := core.Line(0); q < lines; q++ {
			if got, want := d.announced(q), model[0][q] || model[1][q]; got != want {
				t.Fatalf("step %d: announced(%d) = %v, model says %v", step, q, got, want)
			}
		}
	}
}
