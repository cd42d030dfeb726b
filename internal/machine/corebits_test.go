package machine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestCoreBitsVsOracle drives a coreBits of each width and a map oracle
// with the same random operations and checks every query against the
// oracle after each mutation.
func TestCoreBitsVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for words := 1; words <= core.MaxCores/64; words *= 2 {
		n := 64 * words
		s := make(coreBits, words)
		oracle := map[int]bool{}
		check := func(step int) {
			t.Helper()
			if got, want := s.empty(), len(oracle) == 0; got != want {
				t.Fatalf("%d words, step %d: empty = %v, oracle %v", words, step, got, want)
			}
			for i := 0; i < 16; i++ {
				c := rng.Intn(n)
				if got, want := s.has(c), oracle[c]; got != want {
					t.Fatalf("%d words, step %d: has(%d) = %v, oracle %v", words, step, c, got, want)
				}
			}
			var want []int
			for c := range oracle {
				want = append(want, c)
			}
			slices.Sort(want)
			if got := s.members(); !slices.Equal(got, want) {
				t.Fatalf("%d words, step %d: members %v, oracle %v", words, step, got, want)
			}
		}
		for step := 0; step < 4000; step++ {
			c := rng.Intn(n)
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				s.add(c)
				oracle[c] = true
			case 4, 5, 6:
				s.remove(c)
				delete(oracle, c)
			case 7:
				s.only(c)
				oracle = map[int]bool{c: true}
			case 8:
				if rng.Intn(8) == 0 { // rare: full clears reset the state space
					clear(s)
					oracle = map[int]bool{}
				}
			default:
				// anyOther, unrestricted and within a random second set.
				within := make(coreBits, words)
				in := map[int]bool{}
				for i, k := 0, rng.Intn(8); i < k; i++ {
					x := rng.Intn(n)
					within.add(x)
					in[x] = true
				}
				var wantAny, wantWithin bool
				for x := range oracle {
					if x != c {
						wantAny = true
						wantWithin = wantWithin || in[x]
					}
				}
				if got := s.anyOther(c, nil); got != wantAny {
					t.Fatalf("%d words, step %d: anyOther(%d, nil) = %v, oracle %v", words, step, c, got, wantAny)
				}
				if got := s.anyOther(c, within); got != wantWithin {
					t.Fatalf("%d words, step %d: anyOther(%d, within) = %v, oracle %v", words, step, c, got, wantWithin)
				}
			}
			if step%7 == 0 {
				check(step)
			}
		}
		check(-1)
	}
}

// TestCoreBitsBoundaries exercises the word boundaries explicitly: bits 63,
// 64, 127, 128 and the last core.
func TestCoreBitsBoundaries(t *testing.T) {
	edges := []int{0, 63, 64, 127, 128, 255, 256, core.MaxCores - 1}
	s := make(coreBits, core.MaxCores/64)
	for _, c := range edges {
		if s.has(c) {
			t.Fatalf("empty set has %d", c)
		}
		s.add(c)
		if !s.has(c) {
			t.Fatalf("has(%d) false after add", c)
		}
	}
	if got := s.members(); !slices.Equal(got, edges) {
		t.Fatalf("members = %v, want %v", got, edges)
	}
	if got := s.next(65); got != 127 {
		t.Fatalf("next(65) = %d, want 127", got)
	}
	if got := s.next(core.MaxCores); got != -1 {
		t.Fatalf("next(%d) = %d, want -1", core.MaxCores, got)
	}
	if !s.anyOther(0, nil) || !s.anyOther(core.MaxCores-1, nil) {
		t.Fatal("anyOther missed a member in another word")
	}
	s.remove(core.MaxCores - 1)
	if got := s.next(257); got != -1 {
		t.Fatalf("next(257) = %d after removing the last core, want -1", got)
	}
	s.only(64)
	if got := s.members(); !slices.Equal(got, []int{64}) || s.anyOther(64, nil) || !s.anyOther(63, nil) {
		t.Fatalf("after only(64): members %v, anyOther(64) %v, anyOther(63) %v", got, s.anyOther(64, nil), s.anyOther(63, nil))
	}
	s.remove(64)
	if !s.empty() || s.anyOther(0, nil) {
		t.Fatal("set not empty after removing its last member")
	}
}
