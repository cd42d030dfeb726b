package kcas

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/linearizability"
	"repro/internal/machine"
	"repro/internal/schedexplore"
)

// TestExploreLinearizableTaggedKCAS drives the tag-accelerated kCAS through
// the cycle-level schedule explorer on the machine backend: the controller
// serializes the cores, enumerates interleavings at op boundaries and the
// intra-operation gate points (per-line AddTag, pre-lock commit), and
// injects targeted tag evictions — which force the pre-check onto its
// spurious-failure path mid-operation. Every execution's history must
// linearize against the packed multi-register model.
func TestExploreLinearizableTaggedKCAS(t *testing.T) {
	const threads, opsPer = 3, 10
	seed := int64(31)
	newSetup := func() schedexplore.Setup {
		cfg := machine.DefaultConfig(threads)
		cfg.MemBytes = 4 << 20
		m := machine.New(cfg)
		g := New(m)
		addrs := make([]core.Addr, kcasWords)
		for i := range addrs {
			addrs[i] = m.Alloc(1)
		}
		rec := history.NewRecorder(threads, opsPer)
		return schedexplore.Setup{
			Machine: m,
			Workers: threads,
			Body: func(w int, th core.Thread) {
				sh := rec.Shard(w)
				rng := rand.New(rand.NewSource(seed + int64(w)*7919 + 1))
				for n := 0; n < opsPer; n++ {
					if rng.Intn(2) == 0 {
						i := uint64(rng.Intn(kcasWords))
						idx := sh.Begin(history.OpRead, i, 0)
						v := g.Read(th, addrs[i])
						sh.End(idx, true, v)
						continue
					}
					i := rng.Intn(kcasWords)
					j := rng.Intn(kcasWords - 1)
					if j >= i {
						j++
					}
					idx := sh.Begin(history.OpCAS, uint64(i)<<8|uint64(j), 0)
					for {
						oldI, oldJ := g.Read(th, addrs[i]), g.Read(th, addrs[j])
						if g.TaggedKCAS(th, []Entry{
							{Addr: addrs[i], Old: oldI, New: oldI + 1},
							{Addr: addrs[j], Old: oldJ, New: oldJ + 1},
						}) {
							sh.End(idx, true, packPair(oldI, oldJ))
							break
						}
					}
				}
			},
			Check: func() error {
				out := linearizability.Check(kcasModel(), rec.Events())
				return out.Err()
			},
		}
	}
	for _, mode := range []schedexplore.Mode{schedexplore.RandomWalk, schedexplore.PCT, schedexplore.StrategyDPOR} {
		res := schedexplore.Explore(newSetup, schedexplore.Config{
			Mode:         mode,
			Seed:         seed,
			Executions:   5,
			MaxDecisions: 2000,
			EvictPerMil:  100,
		})
		if res.Failure != nil {
			t.Fatalf("mode %s found a violation:\n%s", mode, res.Failure)
		}
	}
}

// TestDPORExhaustiveTaggedKCAS: one double-increment kCAS racing an
// atomic register read on the shared pair. DPOR must exhaust the space —
// every Mazurkiewicz class visited, every execution's history
// linearizable against the packed multi-register model. (Two racing kCAS
// writers conflict at nearly every gate point, so their schedule tree is
// effectively the unreduced interleaving space; the reader opponent keeps
// exhaustion tractable while still crossing the kCAS lock/validate
// windows.) Retries are bounded because a kCAS can only fail while its
// opponent has operations left — and the reader never writes.
//
// It is the slowest test in the tree (~20 s), so exactly one run owns it:
// the plain `go test ./...`. It skips under -short, so the race lane
// (`go test -race -short ./...`) does not repeat it; that loses nothing,
// because the explorer serializes the cores through the gate and the race
// detector sees no concurrent access to check.
func TestDPORExhaustiveTaggedKCAS(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive DPOR run; owned by the non-short suite")
	}
	const threads = 2
	newSetup := func() schedexplore.Setup {
		cfg := machine.DefaultConfig(threads)
		cfg.MemBytes = 4 << 20
		m := machine.New(cfg)
		g := New(m)
		addrs := []core.Addr{m.Alloc(1), m.Alloc(1)}
		rec := history.NewRecorder(threads, 4)
		return schedexplore.Setup{
			Machine: m,
			Workers: threads,
			Body: func(w int, th core.Thread) {
				sh := rec.Shard(w)
				if w == 0 {
					idx := sh.Begin(history.OpCAS, 0<<8|1, 0)
					oldI, oldJ := g.Read(th, addrs[0]), g.Read(th, addrs[1])
					if !g.TaggedKCAS(th, []Entry{
						{Addr: addrs[0], Old: oldI, New: oldI + 1},
						{Addr: addrs[1], Old: oldJ, New: oldJ + 1},
					}) {
						// The reader opponent never writes, so the kCAS
						// cannot fail validation.
						panic("kCAS failed against a read-only opponent")
					}
					sh.End(idx, true, packPair(oldI, oldJ))
					return
				}
				for n := 0; n < 1; n++ {
					i := uint64(n % 2)
					idx := sh.Begin(history.OpRead, i, 0)
					sh.End(idx, true, g.Read(th, addrs[i]))
				}
			},
			Check: func() error {
				out := linearizability.Check(kcasModel(), rec.Events())
				return out.Err()
			},
		}
	}
	res := schedexplore.Explore(newSetup, schedexplore.Config{
		Mode:         schedexplore.StrategyDPOR,
		Executions:   500000,
		MaxDecisions: 3000,
	})
	if res.Failure != nil {
		t.Fatalf("DPOR found a violation:\n%s", res.Failure)
	}
	if !res.Exhausted {
		t.Fatalf("DPOR did not exhaust the space: %d executions (%d truncated, %d sleep-blocked)",
			res.Executions, res.Truncated, res.SleepBlocked)
	}
	t.Logf("exhausted in %d executions (%d sleep-blocked), %d interleaving classes",
		res.Executions, res.SleepBlocked, res.Classes())
}
