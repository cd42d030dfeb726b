package core

import (
	"math/rand"
	"testing"
)

// TestCoreSetVsOracle drives a CoreSet and a map-based oracle with the same
// random operation sequence and checks every query against the oracle after
// each mutation.
func TestCoreSetVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s CoreSet
	oracle := map[int]bool{}

	check := func(step int) {
		t.Helper()
		if got, want := s.Count(), len(oracle); got != want {
			t.Fatalf("step %d: Count = %d, oracle has %d", step, got, want)
		}
		if got, want := s.Empty(), len(oracle) == 0; got != want {
			t.Fatalf("step %d: Empty = %v, oracle %v", step, got, want)
		}
		// Membership, spot-checked at random plus all oracle members.
		for i := 0; i < 16; i++ {
			c := rng.Intn(MaxCores)
			if got, want := s.Contains(c), oracle[c]; got != want {
				t.Fatalf("step %d: Contains(%d) = %v, oracle %v", step, c, got, want)
			}
		}
		// Full iteration must enumerate exactly the oracle's members in
		// ascending order.
		prev := -1
		n := 0
		for c := s.Next(0); c >= 0; c = s.Next(c + 1) {
			if c <= prev {
				t.Fatalf("step %d: Next not ascending: %d after %d", step, c, prev)
			}
			if !oracle[c] {
				t.Fatalf("step %d: iteration yielded %d not in oracle", step, c)
			}
			prev = c
			n++
		}
		if n != len(oracle) {
			t.Fatalf("step %d: iteration yielded %d members, oracle has %d", step, n, len(oracle))
		}
	}

	for step := 0; step < 4000; step++ {
		c := rng.Intn(MaxCores)
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			s.Add(c)
			oracle[c] = true
		case 4, 5, 6:
			s.Remove(c)
			delete(oracle, c)
		case 7:
			s = CoreSet{}
			s.Add(c)
			oracle = map[int]bool{c: true}
		case 8:
			if rng.Intn(8) == 0 { // rare: full clears reset the state space
				s = CoreSet{}
				oracle = map[int]bool{}
			}
		default:
			// ContainsAll against a random second set.
			var o CoreSet
			oo := map[int]bool{}
			for i, n := 0, rng.Intn(8); i < n; i++ {
				x := rng.Intn(MaxCores)
				o.Add(x)
				oo[x] = true
			}
			wantSub := true
			for x := range oo {
				if !oracle[x] {
					wantSub = false
					break
				}
			}
			if got := s.ContainsAll(&o); got != wantSub {
				t.Fatalf("step %d: ContainsAll = %v, oracle %v", step, got, wantSub)
			}
		}
		if step%7 == 0 {
			check(step)
		}
	}
	check(-1)
}

// TestCoreSetBoundaries exercises the word boundaries explicitly: bits 63,
// 64, 127, 128 and the last core.
func TestCoreSetBoundaries(t *testing.T) {
	var s CoreSet
	for _, c := range []int{0, 63, 64, 127, 128, 255, 256, 511} {
		if s.Contains(c) {
			t.Fatalf("empty set contains %d", c)
		}
		s.Add(c)
		if !s.Contains(c) {
			t.Fatalf("Contains(%d) false after Add", c)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	if got := s.Next(65); got != 127 {
		t.Fatalf("Next(65) = %d, want 127", got)
	}
	if got := s.Next(512); got != -1 {
		t.Fatalf("Next(512) = %d, want -1", got)
	}
	if got := s.Next(-5); got != 0 {
		t.Fatalf("Next(-5) = %d, want 0", got)
	}
	s.Remove(511)
	if got := s.Next(257); got != -1 {
		t.Fatalf("Next(257) = %d after removing 511, want -1", got)
	}
}
