package harness

import "testing"

func TestElisionExperiment(t *testing.T) {
	e := NewElisionExperiment(true)
	e.Threads = 2
	e.OpsPerThread = 60
	e.KeyRange = 64
	e.L1Lines = []int{8, 512}
	points := e.Run()
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	byKey := map[string]ElisionPoint{}
	for _, p := range points {
		byKey[p.Structure+string(rune('0'+p.L1Lines/512))] = p
		if p.FastPct < 0 || p.FastPct > 100 {
			t.Fatalf("fast pct out of range: %+v", p)
		}
	}
	// A full-size L1 completes essentially everything on the fast path; an
	// 8-line L1 is smaller than the tree's 12-line tagging window, so its
	// fast path can hardly ever validate.
	if p := byKey["list1"]; p.FastPct < 95 {
		t.Fatalf("full L1 list fast-path pct = %f, want ~100", p.FastPct)
	}
	if p := byKey["abtree0"]; p.FastPct > 50 {
		t.Fatalf("8-line L1 tree fast-path pct = %f, want low", p.FastPct)
	}
}
