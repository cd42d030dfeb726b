package machine

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestScaleSmoke128 drives a 128-core, 2-socket machine — past the paper's
// 64-core ceiling — through a mixed workload and checks the directory
// invariants and snapshot sanity. This is the tier-1 guard that the
// directory's core sets, the sharded clock, and the per-core arenas behave
// at multi-word-mask scale.
func TestScaleSmoke128(t *testing.T) {
	const cores, opsPer, words = 128, 120, 96
	cfg := NUMAConfig(cores, 2)
	cfg.MemBytes = 16 << 20
	m := New(cfg)
	m.BeginEpoch()

	addrs := make([]core.Addr, words)
	lines := make([]uint64, words)
	for i := range addrs {
		addrs[i] = m.Alloc(1)
		lines[i] = uint64(addrs[i].Line())
	}
	var wg sync.WaitGroup
	for w := 0; w < cores; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := m.threads[w]
			th.SetActive(true)
			defer th.SetActive(false)
			for i := 0; i < opsPer; i++ {
				a := addrs[(w*13+i)%words]
				switch i % 5 {
				case 0:
					th.Load(a)
				case 1:
					th.Store(a, uint64(w))
				case 2:
					th.CAS(a, uint64(w), uint64(i))
				case 3:
					th.AddTag(a, 8)
					th.Validate()
				default:
					th.VAS(a, uint64(i))
					th.ClearTagSet()
				}
			}
			th.ClearTagSet()
		}(w)
	}
	wg.Wait()

	checkDirectoryInvariants(t, m, lines)
	s := m.Snapshot()
	if s.Loads == 0 || s.Stores == 0 || s.MaxCycles == 0 {
		t.Fatalf("implausible snapshot at 128 cores: %+v", s)
	}
	if s.SocketHops == 0 {
		t.Fatal("two sockets sharing hot lines produced no cross-socket hops")
	}
}

// TestScaleSmoke256 is the CI scale lane's short 256-core point: four
// sockets, a brief shared workload, invariants intact.
func TestScaleSmoke256(t *testing.T) {
	const cores, opsPer, words = 256, 40, 64
	cfg := NUMAConfig(cores, 4)
	cfg.MemBytes = 32 << 20
	m := New(cfg)
	m.BeginEpoch()

	addrs := make([]core.Addr, words)
	lines := make([]uint64, words)
	for i := range addrs {
		addrs[i] = m.Alloc(1)
		lines[i] = uint64(addrs[i].Line())
	}
	var wg sync.WaitGroup
	for w := 0; w < cores; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := m.threads[w]
			th.SetActive(true)
			defer th.SetActive(false)
			for i := 0; i < opsPer; i++ {
				a := addrs[(w*7+i)%words]
				if i%3 == 0 {
					th.Store(a, uint64(w))
				} else {
					th.Load(a)
				}
			}
		}(w)
	}
	wg.Wait()
	checkDirectoryInvariants(t, m, lines)
	if got := m.Snapshot().Loads; got == 0 {
		t.Fatal("no loads recorded at 256 cores")
	}
}

// TestThrottleBoundsSkewAcrossShards mirrors TestThrottleBoundsSkew with
// the two active cores in *different* clock shards (ids 0 and 95 on a
// 96-core machine), exercising the per-shard minima fold: the skew bound
// must hold across shard boundaries, not just within one.
func TestThrottleBoundsSkewAcrossShards(t *testing.T) {
	cfg := DefaultConfig(96)
	cfg.MemBytes = 1 << 20
	cfg.SyncWindowCycles = 500
	m := New(cfg)
	m.BeginEpoch()

	t0, t1 := m.threads[0], m.threads[95]
	if t0.cshard == t1.cshard {
		t.Fatal("test premise broken: cores 0 and 95 share a clock shard")
	}
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
	go run(t0, t1, a, 3000)
	go run(t1, t0, b, 3000)
	ready.Wait()
	close(start)
	wg.Wait()

	limit := cfg.SyncWindowCycles + 300
	if maxSkew > limit {
		t.Fatalf("max observed cross-shard skew %d exceeds window-based limit %d", maxSkew, limit)
	}
}

// TestClockSyncEnrolWithdrawRace multiplexes 256 simulated cores onto 4
// host CPUs and has every core repeatedly enrol, run a burst of throttled
// ops, and withdraw — racing SetActive against throttle/wakeParked on
// every other core. Run under -race in CI; without the detector it is a
// liveness check (a lost wakeup or a stale shard minimum that parks the
// true laggard would hang it past the deadline).
func TestClockSyncEnrolWithdrawRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const cores, rounds, burst = 256, 12, 25
	cfg := DefaultConfig(cores)
	cfg.MemBytes = 16 << 20
	cfg.SyncWindowCycles = 400 // tight: maximal parking pressure
	m := New(cfg)
	m.BeginEpoch()

	words := make([]core.Addr, 48)
	for i := range words {
		words[i] = m.Alloc(1)
	}
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for w := 0; w < cores; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := m.threads[w]
				rng := rand.New(rand.NewSource(int64(w)*2654435761 + 1))
				for r := 0; r < rounds; r++ {
					th.SetActive(true)
					for i := 0; i < burst; i++ {
						a := words[rng.Intn(len(words))]
						if i%4 == 0 {
							th.Store(a, uint64(i))
						} else {
							th.Load(a)
						}
					}
					th.SetActive(false)
				}
			}(w)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-timeAfter(120):
		t.Fatal("enrol/withdraw race stress did not complete (lost wakeup or stale-minimum deadlock)")
	}
}

// TestSocketPricing checks the two-level cost model directly: a
// cache-to-cache fill from another socket pays the hop, one from the same
// socket does not, and a cross-socket invalidation round charges hops to
// the writer.
func TestSocketPricing(t *testing.T) {
	cfg := NUMAConfig(4, 2) // sockets: {0,1} and {2,3}
	cfg.MemBytes = 1 << 20
	m := New(cfg)
	t0, t1, t2 := m.threads[0], m.threads[1], m.threads[2]

	// Pick a line homed on socket 0 so DRAM hops stay out of the picture
	// for the cores under test.
	a := m.Alloc(1)
	for uint64(a.Line())%2 != 0 {
		a = m.Alloc(1)
	}

	t0.Store(a, 1) // t0 becomes owner (DRAM fill, home socket 0: no hop)
	if t0.stats.SocketHops != 0 {
		t.Fatalf("t0 paid %d hops filling a locally homed line", t0.stats.SocketHops)
	}
	t1.Load(a) // forwarded from t0, same socket: no hop
	if t1.stats.SocketHops != 0 {
		t.Fatalf("t1 paid %d hops on a same-socket forward", t1.stats.SocketHops)
	}
	t2.Load(a) // clean MESIF forward from socket 0 to socket 1: one hop
	if t2.stats.SocketHops == 0 {
		t.Fatal("t2 paid no hop on a cross-socket forward")
	}
	hopsBefore := t2.stats.SocketHops
	t2.Store(a, 2) // invalidates t0 and t1 across the socket boundary
	crossInvHops := t2.stats.SocketHops - hopsBefore
	if crossInvHops < 2 {
		t.Fatalf("cross-socket invalidation of two sharers charged %d hops, want >= 2", crossInvHops)
	}

	// The same sharing pattern on a flat machine must charge no hops.
	flat := New(DefaultConfig(4))
	f0, f2 := flat.threads[0], flat.threads[2]
	b := flat.Alloc(1)
	f0.Store(b, 1)
	f2.Load(b)
	f2.Store(b, 2)
	if f0.stats.SocketHops != 0 || f2.stats.SocketHops != 0 {
		t.Fatal("flat machine charged socket hops")
	}
}
