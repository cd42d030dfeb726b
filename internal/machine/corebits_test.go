package machine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestCoreBitsVsOracle drives a coreBits of each width and a map oracle
// with the same random operations and checks every query against the
// oracle after each mutation. The widths include sets that are not a whole
// number of host words (3 and 9 bytes) and the widest machine's 64 bytes.
// Each set is a window of a larger array, as in a directory chunk, and no
// operation may write the guard bytes on either side of it.
func TestCoreBitsVsOracle(t *testing.T) {
	const guard = 0xa5
	rng := rand.New(rand.NewSource(42))
	for _, width := range []int{1, 2, 3, 8, 9, core.MaxCores / 8} {
		n := 8 * width
		buf := make([]byte, width+2)
		buf[0], buf[width+1] = guard, guard
		s := coreBits(buf[1 : 1+width : 1+width])
		oracle := map[int]bool{}
		check := func(step int) {
			t.Helper()
			if buf[0] != guard || buf[width+1] != guard {
				t.Fatalf("%d bytes, step %d: guard bytes %#x %#x, want %#x", width, step, buf[0], buf[width+1], guard)
			}
			if got, want := s.empty(), len(oracle) == 0; got != want {
				t.Fatalf("%d bytes, step %d: empty = %v, oracle %v", width, step, got, want)
			}
			for i := 0; i < 16; i++ {
				c := rng.Intn(n)
				if got, want := s.has(c), oracle[c]; got != want {
					t.Fatalf("%d bytes, step %d: has(%d) = %v, oracle %v", width, step, c, got, want)
				}
			}
			var want []int
			for c := range oracle {
				want = append(want, c)
			}
			slices.Sort(want)
			if got := s.members(); !slices.Equal(got, want) {
				t.Fatalf("%d bytes, step %d: members %v, oracle %v", width, step, got, want)
			}
			from := rng.Intn(n + 1)
			wantNext := -1
			if i, _ := slices.BinarySearch(want, from); i < len(want) {
				wantNext = want[i]
			}
			if got := s.next(from); got != wantNext {
				t.Fatalf("%d bytes, step %d: next(%d) = %d, oracle %d", width, step, from, got, wantNext)
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
				within := make(coreBits, width)
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
					t.Fatalf("%d bytes, step %d: anyOther(%d, nil) = %v, oracle %v", width, step, c, got, wantAny)
				}
				if got := s.anyOther(c, within); got != wantWithin {
					t.Fatalf("%d bytes, step %d: anyOther(%d, within) = %v, oracle %v", width, step, c, got, wantWithin)
				}
			}
			if step%7 == 0 {
				check(step)
			}
		}
		check(-1)
	}
}

// TestCoreBitsBoundaries exercises the byte and word boundaries
// explicitly: the cores on either side of bytes 0, 1 and 7 (7, 8, 15, 16,
// 63, 64), of the second word (127, 128), of byte 32 (255, 256) and the
// last core.
func TestCoreBitsBoundaries(t *testing.T) {
	edges := []int{0, 7, 8, 15, 16, 63, 64, 127, 128, 255, 256, core.MaxCores - 1}
	s := make(coreBits, core.MaxCores/8)
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
	for _, q := range [][2]int{{1, 7}, {8, 8}, {9, 15}, {17, 63}, {65, 127}, {129, 255}} {
		if got := s.next(q[0]); got != q[1] {
			t.Fatalf("next(%d) = %d, want %d", q[0], got, q[1])
		}
	}
	if got := s.next(core.MaxCores); got != -1 {
		t.Fatalf("next(%d) = %d, want -1", core.MaxCores, got)
	}
	if !s.anyOther(0, nil) || !s.anyOther(core.MaxCores-1, nil) {
		t.Fatal("anyOther missed a member in another byte")
	}
	s.remove(core.MaxCores - 1)
	if got := s.next(257); got != -1 {
		t.Fatalf("next(257) = %d after removing the last core, want -1", got)
	}
	for _, c := range []int{7, 8, 64} {
		s.only(c)
		if got := s.members(); !slices.Equal(got, []int{c}) || s.anyOther(c, nil) || !s.anyOther(c-1, nil) || !s.anyOther(c+1, nil) {
			t.Fatalf("after only(%d): members %v, anyOther(%d) %v, anyOther(%d) %v, anyOther(%d) %v",
				c, got, c, s.anyOther(c, nil), c-1, s.anyOther(c-1, nil), c+1, s.anyOther(c+1, nil))
		}
		s.remove(c)
		if !s.empty() || s.anyOther(0, nil) {
			t.Fatalf("set not empty after removing its last member %d", c)
		}
	}
}
