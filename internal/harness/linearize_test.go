package harness

import (
	"testing"

	"repro/internal/history"
	"repro/internal/linearizability"
	"repro/internal/list"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestWorkloadHistoryLinearizable runs the experiment workload generator
// itself — prefill plus the standard high-update mix — with history
// recording attached, on the machine backend, and checks the recorded
// history. This covers the exact op streams the figures measure, not just
// the dedicated stress harness's.
func TestWorkloadHistoryLinearizable(t *testing.T) {
	const threads = 4
	ops := 150
	if testing.Short() {
		ops = 50
	}
	cfg := machine.DefaultConfig(threads)
	cfg.MemBytes = 16 << 20
	mem := machine.New(cfg)
	s := list.NewVAS(mem)

	rec := history.NewRecorder(threads, ops+32)
	wcfg := workload.Config{
		Threads:      threads,
		KeyRange:     16,
		PrefillSize:  8,
		OpsPerThread: ops,
		Mix:          workload.Update3535,
		Seed:         3,
		History:      rec,
	}
	fill := workload.Prefill(mem, s, wcfg)
	if fill.TotalFill != wcfg.PrefillSize {
		t.Fatalf("prefilled %d keys, want %d", fill.TotalFill, wcfg.PrefillSize)
	}
	counts := workload.Run(mem, s, wcfg)
	if counts.Ops != uint64(threads*ops) {
		t.Fatalf("ran %d ops, want %d", counts.Ops, threads*ops)
	}

	events := rec.Events()
	if want := threads*ops + wcfg.PrefillSize; len(events) < want {
		t.Fatalf("recorded %d events, want at least %d", len(events), want)
	}
	out := linearizability.CheckSet(events)
	if err := out.Err(); err != nil {
		t.Fatalf("workload history: %v", err)
	}

	// The recorder must agree with the workload's own accounting.
	var ins, del, hits uint64
	for i := range events {
		e := &events[i]
		if e.Pending() {
			t.Fatalf("event %d still pending after Run returned", i)
		}
		if !e.OK {
			continue
		}
		switch e.Op {
		case history.OpInsert:
			ins++
		case history.OpDelete:
			del++
		case history.OpContains:
			hits++
		}
	}
	ins -= uint64(wcfg.PrefillSize) // prefill's successful inserts
	if ins != counts.Inserts || del != counts.Deletes || hits != counts.Hits {
		t.Fatalf("history counts (i=%d d=%d h=%d) disagree with workload counts (%d %d %d)",
			ins, del, hits, counts.Inserts, counts.Deletes, counts.Hits)
	}
}
