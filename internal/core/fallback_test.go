package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vtags"
)

func TestFallbackFastPathCommit(t *testing.T) {
	m := vtags.New(1<<16, 1)
	fb := core.NewFallback(m)
	th := m.Thread(0)

	calls := 0
	fastTaken := fb.Run(th, fb.Threshold, func() bool {
		calls++
		return true
	}, func() { t.Fatal("slow path should not run") })
	if !fastTaken || calls != 1 {
		t.Fatalf("fastTaken=%v calls=%d", fastTaken, calls)
	}
	if th.TagCount() != 0 {
		t.Fatal("tag set not cleared after Run")
	}
}

func TestFallbackTripsToSlowPath(t *testing.T) {
	m := vtags.New(1<<16, 1)
	fb := core.NewFallback(m)
	fb.Threshold = 3
	th := m.Thread(0)

	fastCalls, slowCalls := 0, 0
	fastTaken := fb.Run(th, fb.Threshold, func() bool {
		fastCalls++
		return false
	}, func() { slowCalls++ })
	if fastTaken {
		t.Fatal("reported fast commit after persistent failure")
	}
	if fastCalls != 3 || slowCalls != 1 {
		t.Fatalf("fastCalls=%d slowCalls=%d, want 3/1", fastCalls, slowCalls)
	}
	// The slow count must return to zero afterwards.
	if th.Load(fb.ModeAddr()) != core.ModeFast {
		t.Fatal("slow count not restored to zero")
	}
}

func TestFallbackSlowModeAbortsFastPath(t *testing.T) {
	m := vtags.New(1<<16, 2)
	fb := core.NewFallback(m)
	t0, t1 := m.Thread(0), m.Thread(1)

	fb.EnterSlow(t0)
	if fb.BeginFast(t1) {
		t.Fatal("BeginFast succeeded with a slow op in flight")
	}
	t1.ClearTagSet()
	fb.ExitSlow(t0)
	if !fb.BeginFast(t1) {
		t.Fatal("BeginFast failed with no slow ops in flight")
	}
	t1.ClearTagSet()
}

// TestFallbackCountsNestedSlowOps pins the counting semantics: the fast
// path stays disabled until EVERY slow operation has exited, not merely
// the first one (critical when the slow path is a multi-step protocol like
// LLX/SCX).
func TestFallbackCountsNestedSlowOps(t *testing.T) {
	m := vtags.New(1<<16, 3)
	fb := core.NewFallback(m)
	t0, t1, t2 := m.Thread(0), m.Thread(1), m.Thread(2)

	fb.EnterSlow(t0)
	fb.EnterSlow(t1)
	fb.ExitSlow(t0) // one slow op still in flight (t1's)
	if fb.BeginFast(t2) {
		t.Fatal("fast path enabled while a slow op is still in flight")
	}
	t2.ClearTagSet()
	fb.ExitSlow(t1)
	if !fb.BeginFast(t2) {
		t.Fatal("fast path still disabled after all slow ops exited")
	}
	t2.ClearTagSet()
}

// TestExitSlowWithoutEnterPanics guards the protocol against unbalanced
// usage.
func TestExitSlowWithoutEnterPanics(t *testing.T) {
	m := vtags.New(1<<16, 1)
	fb := core.NewFallback(m)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced ExitSlow did not panic")
		}
	}()
	fb.ExitSlow(m.Thread(0))
}

func TestFallbackModeChangeInvalidatesInFlightFastPath(t *testing.T) {
	m := vtags.New(1<<16, 2)
	fb := core.NewFallback(m)
	t0, t1 := m.Thread(0), m.Thread(1)

	target := m.Alloc(1)
	if !fb.BeginFast(t1) {
		t.Fatal("BeginFast failed")
	}
	// Concurrent switch to SLOW writes the mode line, which is in t1's tag
	// set, so t1's commit must fail.
	fb.EnterSlow(t0)
	if t1.VAS(target, 1) {
		t.Fatal("fast-path VAS committed after mode switch")
	}
	t1.ClearTagSet()
}

func TestFallbackDefaultThreshold(t *testing.T) {
	m := vtags.New(1<<16, 1)
	fb := core.NewFallback(m)
	fb.Threshold = 0 // misconfigured: Run must still terminate
	th := m.Thread(0)
	fastCalls := 0
	fb.Run(th, fb.Threshold, func() bool { fastCalls++; return false }, func() {})
	if fastCalls != core.DefaultFallbackThreshold {
		t.Fatalf("fastCalls=%d, want default threshold %d", fastCalls, core.DefaultFallbackThreshold)
	}
}
