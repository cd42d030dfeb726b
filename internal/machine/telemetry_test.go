package machine

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// runContendedWorkload drives every core through a mix of tag/validate/
// commit operations on a small shared line set, returning after all cores
// quiesce. Contention is the point: remote invalidations must evict tags
// so the failure paths (and their telemetry) actually execute.
func runContendedWorkload(m *Machine, opsPerCore int) {
	shared := m.Alloc(core.WordsPerLine * 4)
	// Enroll every core before any worker starts: the lax clock then parks
	// an early starter until the others run, so the cores genuinely overlap
	// (a worker that enrolled itself could finish before its peers launch).
	for _, th := range m.threads {
		th.SetActive(true)
	}
	var wg sync.WaitGroup
	for i := 0; i < m.NumThreads(); i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.threads[id]
			defer th.SetActive(false)
			for n := 0; n < opsPerCore; n++ {
				a := shared + core.Addr((n%4)*core.LineSize)
				b := shared + core.Addr(((n+1)%4)*core.LineSize)
				th.AddTag(a, core.LineSize)
				th.AddTag(b, core.LineSize)
				v := th.Load(a)
				th.Validate()
				switch n % 3 {
				case 0:
					th.VAS(b, v+1)
				case 1:
					th.IAS(b, v+1)
				default:
					th.Store(b, v)
				}
				th.ClearTagSet()
			}
		}(i)
	}
	wg.Wait()
}

// TestStatsAccountingInvariants pins the cross-counter identities a
// coherent simulator must satisfy after a contended run, and that the
// telemetry histograms agree with the Stats counters: occupancy is
// observed once per tag insert, and each streak histogram's sum equals the
// backend failure counter (the streak encoding's invariant).
func TestStatsAccountingInvariants(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MemBytes = 1 << 20
	m := New(cfg)
	set := telemetry.NewSet(m.NumThreads())
	m.SetTelemetry(set)

	runContendedWorkload(m, 500)

	s := m.Snapshot()
	set.Flush()
	agg := set.Merge()

	if got, want := s.Accesses(), s.L1Hits+s.L2Hits+s.RemoteFills+s.MemFills; got != want {
		t.Errorf("Accesses() = %d, want L1+L2+Remote+Mem = %d", got, want)
	}
	if s.Accesses() < s.Loads+s.Stores+s.CASes {
		t.Errorf("accesses %d < architectural ops %d", s.Accesses(), s.Loads+s.Stores+s.CASes)
	}
	if s.InvalidationsSent != s.InvalidationsReceived {
		t.Errorf("invalidations sent %d != received %d", s.InvalidationsSent, s.InvalidationsReceived)
	}
	if s.InvalidationsSent == 0 {
		t.Error("workload generated no invalidations; contention assumptions broken")
	}

	if got, want := agg.TagOccupancy.Count(), s.TagAdds; got != want {
		t.Errorf("TagOccupancy count = %d, want TagAdds = %d", got, want)
	}
	if max := agg.TagOccupancy.Max(); max > uint64(cfg.MaxTags) {
		t.Errorf("TagOccupancy max = %d exceeds MaxTags = %d", max, cfg.MaxTags)
	}
	if got, want := agg.ValidateStreak.Sum(), s.ValidateFails; got != want {
		t.Errorf("ValidateStreak sum = %d, want ValidateFails = %d", got, want)
	}
	if got, want := agg.VASStreak.Sum(), s.VASFails; got != want {
		t.Errorf("VASStreak sum = %d, want VASFails = %d", got, want)
	}
	if got, want := agg.IASStreak.Sum(), s.IASFails; got != want {
		t.Errorf("IASStreak sum = %d, want IASFails = %d", got, want)
	}
	if s.ValidateFails == 0 && s.VASFails == 0 && s.IASFails == 0 {
		t.Error("workload produced no failures; streak invariants tested vacuously")
	}
}
