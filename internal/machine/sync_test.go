package machine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// timeAfter wraps time.After with seconds for readability.
func timeAfter(seconds int) <-chan time.Time {
	return time.After(time.Duration(seconds) * time.Second)
}

// TestThrottleBoundsSkew checks the central property: two active cores
// doing very different amounts of work per op stay within the window while
// both run.
func TestThrottleBoundsSkew(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemBytes = 1 << 20
	cfg.SyncWindowCycles = 500
	m := New(cfg)
	m.BeginEpoch()

	a, b := m.Alloc(1), m.Alloc(1)
	var maxSkew uint64
	var mu sync.Mutex
	record := func(self, other *Thread) {
		mu.Lock()
		mine, theirs := self.pubCycles.Load(), other.pubCycles.Load()
		if mine > theirs && mine-theirs > maxSkew {
			maxSkew = mine - theirs
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	var ready sync.WaitGroup
	start := make(chan struct{})
	ready.Add(2)
	run := func(self, other *Thread, addr core.Addr, ops int) {
		defer wg.Done()
		self.SetActive(true)
		defer self.SetActive(false)
		ready.Done()
		<-start
		for i := 0; i < ops; i++ {
			self.Load(addr)
			record(self, other)
		}
	}
	wg.Add(2)
	t0, t1 := m.threads[0], m.threads[1]
	go run(t0, t1, a, 3000)
	go run(t1, t0, b, 3000)
	ready.Wait()
	close(start)
	wg.Wait()

	// Skew may exceed the window by one op's worth of cycles, but not by
	// much more (a DRAM fill is 100+compute cycles).
	limit := cfg.SyncWindowCycles + 300
	if maxSkew > limit {
		t.Fatalf("max observed skew %d exceeds window-based limit %d", maxSkew, limit)
	}
}

// TestInactiveThreadDoesNotBlockOthers: an enrolled thread that withdraws
// must release any thread waiting on it.
func TestInactiveThreadDoesNotBlockOthers(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemBytes = 1 << 20
	cfg.SyncWindowCycles = 100
	m := New(cfg)
	m.BeginEpoch()
	t0, t1 := m.threads[0], m.threads[1]
	a := m.Alloc(1)

	t0.SetActive(true)
	t1.SetActive(true)
	done := make(chan struct{})
	go func() {
		// t0 runs far ahead; it must stall on t1 and resume once t1
		// withdraws.
		for i := 0; i < 500; i++ {
			t0.Load(a)
		}
		t0.SetActive(false)
		close(done)
	}()
	t1.SetActive(false) // withdraw: t0 must now finish
	<-done
}

// TestThrottleDisabled: with SyncWindowCycles = 0 no stalls occur even at
// extreme skew.
func TestThrottleDisabled(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemBytes = 1 << 20
	cfg.SyncWindowCycles = 0
	m := New(cfg)
	t0 := m.threads[0]
	t0.SetActive(true)
	m.threads[1].SetActive(true) // never runs; must not block t0
	a := m.Alloc(1)
	for i := 0; i < 1000; i++ {
		t0.Load(a)
	}
	t0.SetActive(false)
	m.threads[1].SetActive(false)
}

// TestNoParkingDeadlockUnderLoad is the regression test for a lost-wakeup
// deadlock: threads that publish a clock advance and then park without
// broadcasting could form a cycle in which every thread waits for an
// advance that is already published. The fix broadcasts once on entry to
// the park path. This test drives many threads through tightly
// interleaved ops and must complete well within the deadline.
func TestNoParkingDeadlockUnderLoad(t *testing.T) {
	const cores, opsPer = 16, 3000
	cfg := DefaultConfig(cores)
	cfg.MemBytes = 8 << 20
	cfg.SyncWindowCycles = 500 // tight window: maximal parking pressure
	m := New(cfg)
	m.BeginEpoch()

	words := make([]core.Addr, 64)
	for i := range words {
		words[i] = m.Alloc(1)
	}
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		var ready sync.WaitGroup
		start := make(chan struct{})
		ready.Add(cores)
		for w := 0; w < cores; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := m.threads[w]
				th.SetActive(true)
				defer th.SetActive(false)
				ready.Done()
				<-start
				for i := 0; i < opsPer; i++ {
					a := words[(w*7+i)%len(words)]
					switch i % 4 {
					case 0:
						th.Load(a)
					case 1:
						th.Store(a, uint64(i))
					case 2:
						th.AddTag(a, 8)
						th.Validate()
					default:
						th.VAS(a, uint64(i))
						th.ClearTagSet()
					}
				}
			}(w)
		}
		ready.Wait()
		close(start)
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-timeAfter(60):
		t.Fatal("lax-sync deadlock: workload did not complete")
	}
}
