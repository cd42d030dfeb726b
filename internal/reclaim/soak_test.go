//go:build soak

package reclaim_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/reclaim"
	"repro/internal/skiplist"
	"repro/internal/stm"
	"repro/internal/telemetry"
	"repro/internal/txmap"
	"repro/internal/txset"
	"repro/internal/vtags"
)

// Long-running footprint soak (nightly, -tags soak): millions of churn
// operations against the wired structures must keep the live-line
// high-water mark within a small constant factor of the live set — the
// whole point of reclamation. Without it the footprint grows with the op
// count (every insert a fresh node): at full length roughly 2 lines per
// insert, two orders of magnitude past these bounds.
//
// The per-structure factor k absorbs reservation stalls: a host-descheduled
// goroutine parked mid-operation pins the minimum reservation, so every
// retire issued meanwhile queues until it resumes. The free list grows to
// the stall depth once and then recycles — measured high water is flat
// from 2M ops on — so the bound is a property of the concurrency level,
// not the op count.

const (
	soakThreads  = 4
	soakKeyRange = 1024
)

func soakOps() int {
	if testing.Short() {
		return 500_000
	}
	return 10_000_000
}

// runSoak churns the set and returns the pool stats and merged telemetry.
func runSoak(t *testing.T, s intset.Set, m *vtags.Memory, p *reclaim.Pool) (reclaim.Stats, *telemetry.Core) {
	t.Helper()
	tel := telemetry.NewSet(soakThreads)
	p.SetTelemetry(tel)

	th0 := m.Thread(0)
	for k := uint64(0); k < soakKeyRange; k += 2 {
		s.Insert(th0, intset.KeyMin+k)
	}

	total := soakOps()
	var wg sync.WaitGroup
	for w := 0; w < soakThreads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := m.Thread(w)
			rng := rand.New(rand.NewSource(int64(w)*6364136223846793005 + 1))
			for i := 0; i < total/soakThreads; i++ {
				k := intset.KeyMin + uint64(rng.Intn(soakKeyRange))
				switch rng.Intn(3) {
				case 0:
					s.Insert(th, k)
				case 1:
					s.Delete(th, k)
				default:
					s.Contains(th, k)
				}
			}
		}(w)
	}
	wg.Wait()
	tel.Flush()
	return p.Stats(), tel.Merge()
}

// checkSoak asserts the bounded-footprint and telemetry invariants. k is
// the allowed multiple of the worst-case live set (every key present).
func checkSoak(t *testing.T, st reclaim.Stats, agg *telemetry.Core, linesPerObj int64, k int64) {
	t.Helper()
	liveLines := int64(soakKeyRange+soakThreads+2) * linesPerObj
	if st.HighWaterLines > k*liveLines {
		t.Fatalf("footprint unbounded: high water %d lines > %d x live set (%d lines); stats %+v",
			st.HighWaterLines, k, liveLines, st)
	}
	if st.Freed == 0 || st.ReusedAllocs == 0 {
		t.Fatalf("vacuous soak: nothing recycled (stats %+v)", st)
	}
	if agg.RetireToFree.Count() == 0 {
		t.Fatal("retire-to-free histogram empty despite frees")
	}
	if agg.RetireToFree.Count() != st.Freed {
		t.Fatalf("histogram count %d != freed %d", agg.RetireToFree.Count(), st.Freed)
	}
	t.Logf("high water %d lines (bound %d), retired %d freed %d reused %d, retire-to-free p50 %.0f p99 %.0f max %d",
		st.HighWaterLines, k*liveLines, st.Retired, st.Freed, st.ReusedAllocs,
		agg.RetireToFree.Quantile(0.5), agg.RetireToFree.Quantile(0.99), agg.RetireToFree.Max())
}

func soakSkiplist(t *testing.T, policy reclaim.Policy, k int64) {
	m := vtags.New(256<<20, soakThreads)
	d := reclaim.NewDomainFor(m)
	m.SetReclaim(d)
	s := skiplist.NewVAS(m)
	p := reclaim.NewPool(d, skiplist.NodeWords, policy)
	s.SetReclaim(p)
	st, agg := runSoak(t, s, m, p)
	linesPerObj := int64((skiplist.NodeWords*core.WordSize + core.LineSize - 1) / core.LineSize)
	checkSoak(t, st, agg, linesPerObj, k)
}

func soakTxmap(t *testing.T, policy reclaim.Policy, k int64) {
	m := vtags.New(256<<20, soakThreads)
	d := reclaim.NewDomainFor(m)
	m.SetReclaim(d)
	s := txset.New(m, stm.NewTagged(m))
	p := reclaim.NewPool(d, txmap.NodeWords, policy)
	s.SetReclaim(p)
	st, agg := runSoak(t, s, m, p)
	linesPerObj := int64((txmap.NodeWords*core.WordSize + core.LineSize - 1) / core.LineSize)
	checkSoak(t, st, agg, linesPerObj, k)
}

func TestSoakSkiplistImmediate(t *testing.T) { soakSkiplist(t, reclaim.PolicyImmediate, 32) }
func TestSoakSkiplistEpoch(t *testing.T)     { soakSkiplist(t, reclaim.PolicyEpoch, 64) }
func TestSoakTxmapImmediate(t *testing.T)    { soakTxmap(t, reclaim.PolicyImmediate, 16) }
func TestSoakTxmapEpoch(t *testing.T)        { soakTxmap(t, reclaim.PolicyEpoch, 64) }
