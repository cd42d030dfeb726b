package intset

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// CheckSequential runs a deterministic random op sequence against the set
// and the Reference model on one thread, failing the test on any
// divergence.
func CheckSequential(t *testing.T, mem core.Memory, s Set, ops int, keyRange uint64, seed int64) {
	t.Helper()
	th := mem.Thread(0)
	ref := Reference{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		k := KeyMin + uint64(rng.Int63n(int64(keyRange)))
		switch rng.Intn(3) {
		case 0:
			if got, want := s.Insert(th, k), ref.Insert(k); got != want {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, want)
			}
		case 1:
			if got, want := s.Delete(th, k), ref.Delete(k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
		default:
			if got, want := s.Contains(th, k), ref.Contains(k); got != want {
				t.Fatalf("op %d: Contains(%d) = %v, want %v", i, k, got, want)
			}
		}
	}
	VerifyAgainstReference(t, th, s, ref, keyRange)
}

// VerifyAgainstReference runs the quiescent structural check, then checks
// that membership of every key in [KeyMin, KeyMin+keyRange) matches the
// reference and, if the set is a Snapshotter, that its key enumeration
// equals the reference contents.
func VerifyAgainstReference(t testing.TB, th core.Thread, s Set, ref Reference, keyRange uint64) {
	t.Helper()
	if err := checkQuiescent(th, s); err != nil {
		t.Fatal(err)
	}
	if snap, ok := s.(Snapshotter); ok {
		keys := snap.Keys(th)
		if len(keys) != len(ref) {
			t.Fatalf("snapshot has %d keys, reference has %d", len(keys), len(ref))
		}
		for _, k := range keys {
			if !ref[k] {
				t.Fatalf("snapshot contains %d, reference does not", k)
			}
		}
	}
	for k := range ref {
		if !s.Contains(th, k) {
			t.Fatalf("reference key %d missing from set", k)
		}
	}
}

// CheckDisjointConcurrent has each thread operate on its own key range so
// the final state is exactly predictable, then verifies it and runs the
// quiescent structural check.
func CheckDisjointConcurrent(t *testing.T, mem core.Memory, s Set, threads, opsPerThread int) {
	t.Helper()
	const stride = 1 << 20
	core.RunPhase(mem, threads, func(w int, th core.Thread) {
		base := KeyMin + uint64(w)*stride
		rng := rand.New(rand.NewSource(int64(w + 1)))
		// Random inserts/deletes within the private range; a private
		// reference tracks expected membership.
		ref := Reference{}
		for i := 0; i < opsPerThread; i++ {
			k := base + uint64(rng.Intn(256))
			if rng.Intn(2) == 0 {
				if got, want := s.Insert(th, k), ref.Insert(k); got != want {
					t.Errorf("thread %d: Insert(%d) = %v, want %v", w, k, got, want)
					return
				}
			} else {
				if got, want := s.Delete(th, k), ref.Delete(k); got != want {
					t.Errorf("thread %d: Delete(%d) = %v, want %v", w, k, got, want)
					return
				}
			}
		}
		for k := range ref {
			if !s.Contains(th, k) {
				t.Errorf("thread %d: key %d lost", w, k)
				return
			}
		}
	})
	if err := checkQuiescent(mem.Thread(0), s); err != nil {
		t.Fatal(err)
	}
}

// CheckMixedConcurrent hammers a small shared key range from all threads,
// counting successful inserts/deletes per key, then verifies that final
// membership equals the net count (which must be 0 or 1 per key).
func CheckMixedConcurrent(t *testing.T, mem core.Memory, s Set, threads, opsPerThread int, keyRange uint64) {
	t.Helper()
	counts := NewKeyCounts(threads, keyRange)
	core.RunPhase(mem, threads, func(w int, th core.Thread) {
		rng := rand.New(rand.NewSource(int64(1000 + w)))
		for i := 0; i < opsPerThread; i++ {
			counts.Step(w, th, s, rng)
		}
	})
	if err := counts.Verify(mem.Thread(0), s); err != nil {
		t.Fatal(err)
	}
}
