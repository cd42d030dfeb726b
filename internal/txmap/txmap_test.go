package txmap

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/vtags"
)

// checkRB verifies red-black and BST invariants of every tree inside a
// transaction, and that each key sits in the tree TreeOf names.
func (m *Map) checkRB(tx *stm.Tx) error {
	for i := 0; i < 1<<m.bits; i++ {
		if err := m.checkTree(tx, i); err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
	}
	return nil
}

func (m *Map) checkTree(tx *stm.Tx, i int) error {
	var walk func(n core.Addr, lo, hi uint64) (int, error)
	walk = func(n core.Addr, lo, hi uint64) (int, error) {
		if n == m.nil_ {
			return 1, nil
		}
		k := m.node(tx, n, nKey)
		if k < lo || k >= hi {
			return 0, fmt.Errorf("BST order violated at key %d", k)
		}
		if m.TreeOf(k) != i {
			return 0, fmt.Errorf("key %d belongs in tree %d", k, m.TreeOf(k))
		}
		c := m.color(tx, n)
		if c == red {
			if m.color(tx, m.kid(tx, n, 0)) == red || m.color(tx, m.kid(tx, n, 1)) == red {
				return 0, fmt.Errorf("red-red violation at key %d", k)
			}
		}
		lh, err := walk(m.kid(tx, n, 0), lo, k)
		if err != nil {
			return 0, err
		}
		rh, err := walk(m.kid(tx, n, 1), k+1, hi)
		if err != nil {
			return 0, err
		}
		if lh != rh {
			return 0, fmt.Errorf("black height mismatch at key %d: %d vs %d", k, lh, rh)
		}
		if c == black {
			lh++
		}
		return lh, nil
	}
	root := m.rootNode(tx, m.roots.Plus(i))
	if root != m.nil_ && m.color(tx, root) != black {
		return fmt.Errorf("root is not black")
	}
	_, err := walk(root, 0, ^uint64(0))
	return err
}

// hashedBits are the tree counts the single-tree tests also run at: bits 4
// scales their key range and op count by the 16 trees, so each tree holds
// about as many keys as the one tree does and every rotation and fixup
// still runs.
var hashedBits = []uint{0, 4}

func TestMapSequentialEquivalence(t *testing.T) {
	for _, bits := range hashedBits {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) { sequentialEquivalence(t, bits) })
	}
}

// sequentialEquivalence checks a seeded Put/Delete/Get script against a Go
// map, then that ForEach visits every pair tree by tree in ascending order.
func sequentialEquivalence(t *testing.T, bits uint) {
	mem := vtags.New(32<<20, 1)
	tm := stm.NewNOrec(mem)
	m := NewHashed(mem, bits)
	th := mem.Thread(0)
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(17))
	keys, ops := 200<<bits, 3000<<bits
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(keys) + 1)
		v := uint64(rng.Intn(1000))
		switch rng.Intn(4) {
		case 0, 1:
			var fresh bool
			tm.Run(th, func(tx *stm.Tx) { fresh = m.Put(tx, k, v, th) })
			_, existed := ref[k]
			if fresh == existed {
				t.Fatalf("op %d: Put(%d) fresh=%v, existed=%v", i, k, fresh, existed)
			}
			ref[k] = v
		case 2:
			var ok bool
			tm.Run(th, func(tx *stm.Tx) { ok = m.Delete(tx, k) })
			_, existed := ref[k]
			if ok != existed {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, ok, existed)
			}
			delete(ref, k)
		default:
			var got uint64
			var ok bool
			tm.Run(th, func(tx *stm.Tx) { got, ok = m.Get(tx, k) })
			want, existed := ref[k]
			if ok != existed || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i, k, got, ok, want, existed)
			}
		}
		if i%(250<<bits) == 0 {
			tm.Run(th, func(tx *stm.Tx) {
				if err := m.checkRB(tx); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			})
		}
	}
	tm.Run(th, func(tx *stm.Tx) {
		if err := m.checkRB(tx); err != nil {
			t.Fatal(err)
		}
		if m.Size(tx) != len(ref) {
			t.Fatalf("size %d, want %d", m.Size(tx), len(ref))
		}
		lastTree, last, seen := 0, uint64(0), 0
		m.ForEach(tx, func(k, v uint64) {
			tree := m.TreeOf(k)
			if tree < lastTree || (tree == lastTree && k <= last && last != 0) {
				t.Fatalf("ForEach out of order at %d (tree %d)", k, tree)
			}
			if ref[k] != v {
				t.Fatalf("ForEach value mismatch at %d", k)
			}
			lastTree, last = tree, k
			seen++
		})
		if seen != len(ref) {
			t.Fatalf("ForEach visited %d pairs, want %d", seen, len(ref))
		}
	})
}

// TestMapHashedVisitsEveryTree fills a 64-tree map until no tree is empty
// and checks that ForEach, Size and TreeSize reach every tree and that each
// pair sits in the tree TreeOf names.
func TestMapHashedVisitsEveryTree(t *testing.T) {
	const bits = 6
	mem := vtags.New(32<<20, 1)
	tm := stm.NewTagged(mem)
	m := NewHashed(mem, bits)
	th := mem.Thread(0)
	want := make([]int, 1<<bits)
	empty := len(want)
	k := uint64(0)
	for ; empty > 0; k++ {
		tm.Run(th, func(tx *stm.Tx) { m.Put(tx, k, ^k, th) })
		i := m.TreeOf(k)
		if want[i] == 0 {
			empty--
		}
		want[i]++
	}
	tm.Run(th, func(tx *stm.Tx) {
		got := make([]int, len(want))
		m.ForEach(tx, func(key, val uint64) {
			if key >= k || val != ^key {
				t.Fatalf("ForEach gave (%d, %d), never put", key, val)
			}
			got[m.TreeOf(key)]++
		})
		for i := range want {
			if got[i] != want[i] || m.TreeSize(tx, i) != want[i] {
				t.Fatalf("tree %d: ForEach saw %d pairs, TreeSize %d, want %d", i, got[i], m.TreeSize(tx, i), want[i])
			}
		}
		if m.Size(tx) != int(k) {
			t.Fatalf("Size() = %d, want %d", m.Size(tx), k)
		}
	})
}

func TestMapConcurrentDisjoint(t *testing.T) {
	const workers = 4
	mem := vtags.New(64<<20, workers)
	tm := stm.NewTagged(mem)
	m := New(mem)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := mem.Thread(w)
			base := uint64(w * 1000)
			for i := 0; i < 150; i++ {
				k := base + uint64(i) + 1
				tm.Run(th, func(tx *stm.Tx) { m.Put(tx, k, k*2, th) })
			}
			for i := 0; i < 150; i += 2 {
				k := base + uint64(i) + 1
				tm.Run(th, func(tx *stm.Tx) { m.Delete(tx, k) })
			}
		}(w)
	}
	wg.Wait()
	th := mem.Thread(0)
	tm.Run(th, func(tx *stm.Tx) {
		if err := m.checkRB(tx); err != nil {
			t.Fatal(err)
		}
	})
	for w := 0; w < workers; w++ {
		base := uint64(w * 1000)
		for i := 0; i < 150; i++ {
			k := base + uint64(i) + 1
			var ok bool
			tm.Run(th, func(tx *stm.Tx) { _, ok = m.Get(tx, k) })
			if want := i%2 == 1; ok != want {
				t.Fatalf("key %d present=%v, want %v", k, ok, want)
			}
		}
	}
}

func TestMapConcurrentMixedContended(t *testing.T) {
	for _, bits := range hashedBits {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) { concurrentMixedContended(t, bits) })
	}
}

func concurrentMixedContended(t *testing.T, bits uint) {
	const workers = 4
	for _, mk := range []func(core.Memory) *stm.TM{stm.NewNOrec, stm.NewTagged} {
		mem := vtags.New(64<<20, workers)
		tm := mk(mem)
		m := NewHashed(mem, bits)
		keys, ops := 40<<bits, 200<<bits
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := mem.Thread(w)
				rng := rand.New(rand.NewSource(int64(w + 5)))
				for i := 0; i < ops; i++ {
					k := uint64(rng.Intn(keys) + 1)
					switch rng.Intn(3) {
					case 0:
						tm.Run(th, func(tx *stm.Tx) { m.Put(tx, k, uint64(w), th) })
					case 1:
						tm.Run(th, func(tx *stm.Tx) { m.Delete(tx, k) })
					default:
						tm.Run(th, func(tx *stm.Tx) { m.Get(tx, k) })
					}
				}
			}(w)
		}
		wg.Wait()
		th := mem.Thread(0)
		tm.Run(th, func(tx *stm.Tx) {
			if err := m.checkRB(tx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMapLargeAscendingStaysBalanced(t *testing.T) {
	mem := vtags.New(64<<20, 1)
	tm := stm.NewNOrec(mem)
	m := New(mem)
	th := mem.Thread(0)
	const n = 2000
	for k := uint64(1); k <= n; k++ {
		tm.Run(th, func(tx *stm.Tx) { m.Put(tx, k, k, th) })
	}
	// A red-black tree of n nodes has height <= 2*log2(n+1) ~ 22.
	tm.Run(th, func(tx *stm.Tx) {
		if err := m.checkRB(tx); err != nil {
			t.Fatal(err)
		}
		depth := 0
		n := m.rootNode(tx, m.roots)
		for n != m.nil_ {
			depth++
			n = m.kid(tx, n, 0)
		}
		if depth > 25 {
			t.Fatalf("leftmost depth %d: tree unbalanced", depth)
		}
	})
}
