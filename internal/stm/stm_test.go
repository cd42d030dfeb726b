package stm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vtags"
)

var tmVariants = []struct {
	name string
	mk   func(core.Memory) *TM
}{
	{"NOrec", NewNOrec},
	{"Tagged", NewTagged},
}

func forAllTMs(t *testing.T, threads int, f func(t *testing.T, mem core.Memory, tm *TM)) {
	backends := []struct {
		name string
		mk   func(int) core.Memory
	}{
		{"vtags", func(n int) core.Memory { return vtags.New(8<<20, n) }},
		{"machine", func(n int) core.Memory {
			cfg := machine.DefaultConfig(n)
			cfg.MemBytes = 8 << 20
			return machine.New(cfg)
		}},
	}
	for _, b := range backends {
		for _, v := range tmVariants {
			t.Run(fmt.Sprintf("%s/%s", b.name, v.name), func(t *testing.T) {
				mem := b.mk(threads)
				f(t, mem, v.mk(mem))
			})
		}
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	forAllTMs(t, 1, func(t *testing.T, mem core.Memory, tm *TM) {
		th := mem.Thread(0)
		a := mem.Alloc(1)
		tm.Run(th, func(tx *Tx) {
			if tx.Read(a) != 0 {
				t.Error("fresh word non-zero")
			}
			tx.Write(a, 7)
			if tx.Read(a) != 7 {
				t.Error("own write invisible")
			}
			tx.Write(a, 8)
			if tx.Read(a) != 8 {
				t.Error("overwrite invisible")
			}
		})
		if th.Load(a) != 8 {
			t.Fatal("committed value wrong")
		}
	})
}

func TestReadOnlyCommitsWithoutLock(t *testing.T) {
	forAllTMs(t, 1, func(t *testing.T, mem core.Memory, tm *TM) {
		th := mem.Thread(0)
		a := mem.Alloc(1)
		th.Store(a, 5)
		seqBefore := th.Load(tm.SeqAddr())
		tm.Run(th, func(tx *Tx) {
			if tx.Read(a) != 5 {
				t.Error("wrong value")
			}
		})
		if th.Load(tm.SeqAddr()) != seqBefore {
			t.Fatal("read-only transaction bumped the sequence lock")
		}
	})
}

func TestWriteBumpsSequence(t *testing.T) {
	forAllTMs(t, 1, func(t *testing.T, mem core.Memory, tm *TM) {
		th := mem.Thread(0)
		a := mem.Alloc(1)
		before := th.Load(tm.SeqAddr())
		tm.Run(th, func(tx *Tx) { tx.Write(a, 1) })
		after := th.Load(tm.SeqAddr())
		if after != before+2 || after%2 != 0 {
			t.Fatalf("seq %d -> %d, want +2 and even", before, after)
		}
	})
}

func TestAtomicTransfer(t *testing.T) {
	forAllTMs(t, 4, func(t *testing.T, mem core.Memory, tm *TM) {
		const accounts = 8
		const perThread = 150
		addrs := make([]core.Addr, accounts)
		th0 := mem.Thread(0)
		for i := range addrs {
			addrs[i] = mem.Alloc(1)
			th0.Store(addrs[i], 1000)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := mem.Thread(w)
				for i := 0; i < perThread; i++ {
					src := (w + i) % accounts
					dst := (w + i + 1 + i%3) % accounts
					if src == dst {
						continue
					}
					tm.Run(th, func(tx *Tx) {
						s := tx.Read(addrs[src])
						d := tx.Read(addrs[dst])
						tx.Write(addrs[src], s-10)
						tx.Write(addrs[dst], d+10)
					})
				}
			}(w)
		}
		wg.Wait()
		var sum uint64
		for _, a := range addrs {
			sum += th0.Load(a)
		}
		if sum != accounts*1000 {
			t.Fatalf("total = %d, want %d (lost or duplicated money)", sum, accounts*1000)
		}
	})
}

// Opacity: a reader transaction must never observe the two halves of an
// invariant-preserving update torn apart, even mid-transaction.
func TestOpacity(t *testing.T) {
	forAllTMs(t, 3, func(t *testing.T, mem core.Memory, tm *TM) {
		a, b := mem.Alloc(1), mem.Alloc(1)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(th core.Thread) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					tm.Run(th, func(tx *Tx) {
						va := tx.Read(a)
						tx.Write(a, va+1)
						tx.Write(b, va+1)
					})
				}
			}(mem.Thread(w))
		}
		th := mem.Thread(2)
		for i := 0; i < 500; i++ {
			var va, vb uint64
			tm.Run(th, func(tx *Tx) {
				va = tx.Read(a)
				vb = tx.Read(b)
			})
			if va != vb {
				close(stop)
				wg.Wait()
				t.Fatalf("torn read: a=%d b=%d", va, vb)
			}
		}
		close(stop)
		wg.Wait()
	})
}

func TestAbortsAreCounted(t *testing.T) {
	forAllTMs(t, 2, func(t *testing.T, mem core.Memory, tm *TM) {
		a := mem.Alloc(1)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(th core.Thread) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					tm.Run(th, func(tx *Tx) {
						v := tx.Read(a)
						tx.Write(a, v+1)
					})
				}
			}(mem.Thread(w))
		}
		wg.Wait()
		if got := mem.Thread(0).Load(a); got != 600 {
			t.Fatalf("counter = %d, want 600", got)
		}
		if tm.Commits.Load() != 600 {
			t.Fatalf("commits = %d, want 600", tm.Commits.Load())
		}
	})
}

// TestTaggedValidationIsLocal pins the tagged variant's selling point: a
// read-only transaction with a quiet lock validates without re-reading its
// read set from memory. It bounds loads from above; the bound from below —
// every read still validates, which is what rejects the seq-gated design —
// is TestTaggedValidatesEveryRead.
func TestTaggedValidationIsLocal(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 8 << 20
	m := machine.New(cfg)
	tm := NewTagged(m)
	th := m.Thread(0)
	addrs := make([]core.Addr, 8)
	for i := range addrs {
		addrs[i] = m.Alloc(1)
	}
	// Warm up: one transaction that reads everything.
	tm.Run(th, func(tx *Tx) {
		for _, a := range addrs {
			tx.Read(a)
		}
	})
	// Each post-read check should be a Validate, not a re-read of the read
	// set: loads grow linearly (one per Read), not quadratically.
	before := m.Snapshot()
	tm.Run(th, func(tx *Tx) {
		for _, a := range addrs {
			tx.Read(a)
		}
	})
	after := m.Snapshot()
	loads := after.Loads - before.Loads
	// 8 data loads + seq reads + slack; value-based validation would cost
	// ~8+7+6+... extra loads.
	if loads > 20 {
		t.Fatalf("tagged read-only transaction issued %d loads; validation is not local", loads)
	}
	if after.Validates == before.Validates {
		t.Fatal("tagged transaction performed no tag validations")
	}
}

// TestTaggedValidatesEveryRead is the guard against skipping the per-read
// Validate while the sequence lock has not moved since the last one. That
// variant is correct, passes TestTaggedValidationIsLocal (it still validates
// once per attempt) and is faster on the host, but on the machine an attempt
// doomed by an evicted tag then runs to its end instead of failing at its
// next read: sim-vacation fell from 1.42 M to 0.37 M simulated tx/s, aborts
// per commit rose from 0.43 to 1.81 (ROADMAP.md has the full record).
func TestTaggedValidatesEveryRead(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 8 << 20
	m := machine.New(cfg)
	tm := NewTagged(m)
	th := m.Thread(0)
	addrs := make([]core.Addr, 8)
	for i := range addrs {
		addrs[i] = m.Alloc(1)
	}
	before := m.Snapshot().Validates
	tm.Run(th, func(tx *Tx) {
		for _, a := range addrs {
			tx.Read(a)
		}
	})
	if got := m.Snapshot().Validates - before; got < uint64(len(addrs)) {
		t.Fatalf("%d reads on a quiet lock made %d tag validations; every tagged read must validate", len(addrs), got)
	}
}

// TestReadYourOwnWritesAfterReads: Read consults the write set only once it
// is non-empty, so the first write arriving after a read-only prefix must
// switch every later read of that address to the buffered value, while
// addresses never written keep coming from memory. begin empties the write
// index only after an attempt that wrote, so writing and read-only
// transactions alternate on the cached Tx: a read-only one must see memory,
// not the previous write set, and the writing one after it must start from
// an empty index (it writes in the opposite order, so a surviving entry
// would point at the wrong slot).
func TestReadYourOwnWritesAfterReads(t *testing.T) {
	const n = 12
	for _, mk := range []func(core.Memory) *TM{NewNOrec, NewTagged} {
		mem := vtags.New(1<<20, 1)
		tm := mk(mem)
		tm.Prepare(1)
		th := mem.Thread(0)
		addrs := make([]core.Addr, n)
		for i := range addrs {
			addrs[i] = mem.Alloc(1)
			th.Store(addrs[i], uint64(100+i))
		}
		const rounds = 4
		for round := uint64(0); round < rounds; round++ {
			// at(j) is the j'th address this round visits: forward on even
			// rounds, backward on odd ones.
			at := func(j int) int {
				if round%2 == 1 {
					return n - 1 - j
				}
				return j
			}
			tm.RunCached(th, func(tx *Tx) {
				for i, a := range addrs {
					if got, want := tx.Read(a), 100+uint64(i)+round; got != want {
						t.Fatalf("round %d: read-only prefix read %d at %d, want %d", round, got, i, want)
					}
				}
				for j := 0; j < n; j++ {
					i := at(j)
					tx.Write(addrs[i], 101+uint64(i)+round)
					if got, want := tx.Read(addrs[i]), 101+uint64(i)+round; got != want {
						t.Fatalf("round %d: read %d after writing %d at %d", round, got, want, i)
					}
					if j+1 < n {
						next := at(j + 1)
						if got, want := tx.Read(addrs[next]), 100+uint64(next)+round; got != want {
							t.Fatalf("round %d: unwritten address %d read %d, want %d", round, next, got, want)
						}
					}
				}
			})
			// Two read-only transactions: the first begins after a writing
			// attempt, the second after a read-only one.
			for k := 0; k < 2; k++ {
				tm.RunCached(th, func(tx *Tx) {
					for i, a := range addrs {
						if got, want := tx.Read(a), 101+uint64(i)+round; got != want {
							t.Fatalf("round %d: read-only tx %d read %d at %d, want %d", round, k, got, i, want)
						}
					}
				})
			}
		}
		for i, a := range addrs {
			if got := th.Load(a); got != 100+rounds+uint64(i) {
				t.Fatalf("tagged=%v: committed %d at %d, want %d", tm.Tagged(), got, i, 100+rounds+i)
			}
		}
	}
}

// TestTagOverflowFallsBack drops to value-based validation when the read
// set exceeds MaxTags, and must still be correct.
func TestTagOverflowFallsBack(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	cfg.MemBytes = 8 << 20
	cfg.MaxTags = 4
	m := machine.New(cfg)
	tm := NewTagged(m)
	th := m.Thread(0)
	addrs := make([]core.Addr, 16) // far beyond MaxTags
	for i := range addrs {
		addrs[i] = m.Alloc(1)
		th.Store(addrs[i], uint64(i))
	}
	var sum uint64
	tm.Run(th, func(tx *Tx) {
		sum = 0
		for _, a := range addrs {
			sum += tx.Read(a)
		}
	})
	if sum != 120 {
		t.Fatalf("sum = %d, want 120", sum)
	}
	tm.Run(th, func(tx *Tx) {
		for i, a := range addrs {
			tx.Write(a, uint64(i*2))
		}
	})
	if th.Load(addrs[5]) != 10 {
		t.Fatal("overflowed writer transaction did not commit")
	}
}

func TestNestedPanicPropagates(t *testing.T) {
	mem := vtags.New(1<<20, 1)
	tm := NewNOrec(mem)
	th := mem.Thread(0)
	defer func() {
		if r := recover(); r != "user panic" {
			t.Fatalf("recovered %v, want user panic", r)
		}
	}()
	tm.Run(th, func(tx *Tx) { panic("user panic") })
}
