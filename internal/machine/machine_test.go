package machine

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

func testMachine(cores int) *Machine {
	cfg := DefaultConfig(cores)
	cfg.MemBytes = 1 << 20
	return New(cfg)
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = core.MaxCores + 1 },
		func(c *Config) { c.Sockets = -1 },
		func(c *Config) { c.Sockets = 3 }, // must divide Cores (2)
		func(c *Config) { c.Sockets = 2; c.Cores = 3 },
		func(c *Config) { c.MemBytes = 0 },
		func(c *Config) { c.L1Bytes = 0 },
		func(c *Config) { c.L2Bytes = c.L1Bytes / 2 },
		func(c *Config) { c.MaxTags = 0 },
		func(c *Config) { c.ClockHz = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(2)
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cfg := DefaultConfig(2)
	if err := cfg.validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	m := testMachine(2)
	t0, t1 := m.Thread(0), m.Thread(1)
	a := m.Alloc(1)
	t0.Store(a, 1)
	t1.Load(a) // both cores now share the line

	sharers, _, _ := m.DebugLine(a.Line())
	if !slices.Equal(sharers, []int{0, 1}) {
		t.Fatalf("sharers = %v, want {0,1}", sharers)
	}

	t0.Store(a, 2)
	sharers, owner, _ := m.DebugLine(a.Line())
	if !slices.Equal(sharers, []int{0}) || owner != 0 {
		t.Fatalf("after store: sharers=%v owner=%d, want {0}/0", sharers, owner)
	}
	if m.CoreStatsOf(1).InvalidationsReceived.Load() == 0 {
		t.Fatal("core 1 received no invalidation")
	}
}

func TestSpuriousEvictionByCapacity(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MemBytes = 4 << 20
	// Tiny L1: 4 sets x 2 ways = 8 lines; big L2 so only L1 thrashes.
	cfg.L1Bytes = 8 * core.LineSize
	cfg.L1Ways = 2
	m := New(cfg)
	th := m.Thread(0)

	tagged := m.Alloc(1)
	th.AddTag(tagged, 8)
	if !th.Validate() {
		t.Fatal("fresh tag invalid")
	}
	// Thrash the L1 with conflicting lines until the tagged line is
	// displaced (every line maps somewhere in 4 sets; 200 distinct lines
	// guarantee displacement).
	for i := 0; i < 200; i++ {
		th.Load(m.Alloc(1))
	}
	if th.Validate() {
		t.Fatal("tag survived L1 thrashing (spurious eviction not modeled)")
	}
	if m.CoreStatsOf(0).SpuriousEvictions == 0 {
		t.Fatal("spurious eviction not counted")
	}
}

func TestStatsLevels(t *testing.T) {
	m := testMachine(1)
	th := m.Thread(0)
	a := m.Alloc(1)
	th.Load(a) // DRAM fill
	th.Load(a) // L1 hit
	cs := m.CoreStatsOf(0)
	if cs.MemFills != 1 {
		t.Fatalf("MemFills = %d, want 1", cs.MemFills)
	}
	if cs.L1Hits != 1 {
		t.Fatalf("L1Hits = %d, want 1", cs.L1Hits)
	}
	if cs.Cycles == 0 || cs.Energy == 0 {
		t.Fatal("cycles/energy not charged")
	}
}

func TestRemoteFillCounted(t *testing.T) {
	m := testMachine(2)
	t0, t1 := m.Thread(0), m.Thread(1)
	a := m.Alloc(1)
	t0.Store(a, 1)
	t1.Load(a)
	if m.CoreStatsOf(1).RemoteFills != 1 {
		t.Fatalf("RemoteFills = %d, want 1", m.CoreStatsOf(1).RemoteFills)
	}
}

func TestValidateIsLocal(t *testing.T) {
	m := testMachine(2)
	t1 := m.Thread(1)
	a := m.Alloc(1)
	t1.AddTag(a, 8)
	before := m.CoreStatsOf(1).InvalidationsSent
	loads := m.CoreStatsOf(1).Loads
	for i := 0; i < 100; i++ {
		t1.Validate()
	}
	cs := m.CoreStatsOf(1)
	// The key property: validation generates no coherence traffic and no
	// memory accesses.
	if cs.InvalidationsSent != before || cs.Loads != loads {
		t.Fatal("Validate generated coherence traffic or loads")
	}
}

func TestSnapshotAggregates(t *testing.T) {
	m := testMachine(2)
	t0, t1 := m.Thread(0), m.Thread(1)
	a := m.Alloc(1)
	t0.Store(a, 1)
	t1.Load(a)
	s := m.Snapshot()
	if s.Loads != 1 || s.Stores != 1 {
		t.Fatalf("snapshot loads=%d stores=%d", s.Loads, s.Stores)
	}
	if s.Accesses() != 2 {
		t.Fatalf("Accesses = %d", s.Accesses())
	}
	if s.MaxCycles == 0 || s.TotalCycles < s.MaxCycles {
		t.Fatal("cycle aggregation wrong")
	}
	if s.MissRate() <= 0 || s.MissRate() > 1 {
		t.Fatalf("MissRate = %f", s.MissRate())
	}
}

// Concurrent atomic-increment via tag+load+VAS: the total must be exact,
// proving VAS linearizes against concurrent VAS on the same line.
func TestConcurrentVASCounter(t *testing.T) {
	const workers, perWorker = 8, 200
	m := testMachine(workers)
	ctr := m.Alloc(1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(th core.Thread) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					th.ClearTagSet()
					th.AddTag(ctr, 8)
					v := th.Load(ctr)
					if th.VAS(ctr, v+1) {
						break
					}
				}
			}
			th.ClearTagSet()
		}(m.Thread(w))
	}
	wg.Wait()
	if got := m.Thread(0).Load(ctr); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// Same with plain CAS as a sanity check of the baseline primitive.
func TestConcurrentCASCounter(t *testing.T) {
	const workers, perWorker = 8, 200
	m := testMachine(workers)
	ctr := m.Alloc(1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(th core.Thread) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					v := th.Load(ctr)
					if th.CAS(ctr, v, v+1) {
						break
					}
				}
			}
		}(m.Thread(w))
	}
	wg.Wait()
	if got := m.Thread(0).Load(ctr); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// IAS-based increments interleaved with plain stores on a second line:
// exercises multi-line commits under concurrency (race detector checks the
// locking discipline).
func TestConcurrentIASStress(t *testing.T) {
	const workers, perWorker = 4, 100
	m := testMachine(workers)
	ctr := m.Alloc(1)
	aux := m.Alloc(1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(th core.Thread) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					th.ClearTagSet()
					th.AddTag(ctr, 8)
					th.AddTag(aux, 8)
					v := th.Load(ctr)
					if th.IAS(ctr, v+1) {
						break
					}
				}
			}
			th.ClearTagSet()
		}(m.Thread(w))
	}
	wg.Wait()
	if got := m.Thread(0).Load(ctr); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}
