package linearizability

import (
	"strings"
	"testing"

	"repro/internal/history"
)

// setEv builds a completed set event with explicit timestamps.
func setEv(w int32, op uint8, key uint64, ok bool, inv, ret uint64) history.Event {
	return history.Event{Worker: w, Op: op, Key: key, OK: ok, Inv: inv, Ret: ret}
}

func TestSequentialSetHistoryAccepted(t *testing.T) {
	evs := []history.Event{
		setEv(0, history.OpInsert, 5, true, 1, 2),
		setEv(0, history.OpContains, 5, true, 3, 4),
		setEv(0, history.OpInsert, 5, false, 5, 6),
		setEv(0, history.OpDelete, 5, true, 7, 8),
		setEv(0, history.OpContains, 5, false, 9, 10),
		setEv(0, history.OpDelete, 5, false, 11, 12),
	}
	if out := CheckSet(evs); !out.OK {
		t.Fatalf("valid sequential history rejected:\n%s", out.Explain())
	}
}

func TestConcurrentReorderingAccepted(t *testing.T) {
	// The contains completes inside the insert's interval and observes the
	// key: linearizable by placing the insert first.
	evs := []history.Event{
		setEv(0, history.OpInsert, 9, true, 1, 10),
		setEv(1, history.OpContains, 9, true, 2, 3),
	}
	if out := CheckSet(evs); !out.OK {
		t.Fatalf("valid concurrent history rejected:\n%s", out.Explain())
	}
	// Same shape, but the contains misses: linearizable the other way.
	evs[1].OK = false
	if out := CheckSet(evs); !out.OK {
		t.Fatalf("valid concurrent history rejected:\n%s", out.Explain())
	}
}

func TestStaleReadRejected(t *testing.T) {
	// Contains observes a key strictly after its only insert was deleted.
	evs := []history.Event{
		setEv(0, history.OpInsert, 3, true, 1, 2),
		setEv(0, history.OpDelete, 3, true, 3, 4),
		setEv(1, history.OpContains, 3, true, 5, 6),
	}
	out := CheckSet(evs)
	if out.OK {
		t.Fatal("stale read accepted")
	}
	if out.Inconclusive {
		t.Fatal("verdict inconclusive on a 3-op history")
	}
	if !strings.Contains(out.Explain(), "NOT linearizable") {
		t.Fatalf("unexpected explanation: %q", out.Explain())
	}
}

func TestDoubleSuccessfulInsertRejected(t *testing.T) {
	// Two overlapping inserts of the same key both report "was absent":
	// the classic lost-update signature (e.g. a skipped validation).
	evs := []history.Event{
		setEv(0, history.OpInsert, 7, true, 1, 4),
		setEv(1, history.OpInsert, 7, true, 2, 3),
	}
	if out := CheckSet(evs); out.OK {
		t.Fatal("double successful insert accepted")
	}
}

func TestLostDeleteRejected(t *testing.T) {
	// A delete reports success, yet a later (non-overlapping) contains
	// still sees the key — the "lost delete during node replacement" bug
	// class the schedule fuzzer hunts for.
	evs := []history.Event{
		setEv(0, history.OpInsert, 2, true, 1, 2),
		setEv(1, history.OpDelete, 2, true, 3, 4),
		setEv(0, history.OpContains, 2, true, 5, 6),
	}
	if out := CheckSet(evs); out.OK {
		t.Fatal("lost delete accepted")
	}
}

func TestPendingOperationBothWays(t *testing.T) {
	pendingInsert := history.Event{Worker: 0, Op: history.OpInsert, Key: 4, Inv: 1, Ret: ^uint64(0)}
	// The pending insert may have taken effect...
	evs := []history.Event{
		pendingInsert,
		setEv(1, history.OpContains, 4, true, 5, 6),
	}
	if out := CheckSet(evs); !out.OK {
		t.Fatalf("pending-insert-observed rejected:\n%s", out.Explain())
	}
	// ...or not.
	evs[1].OK = false
	if out := CheckSet(evs); !out.OK {
		t.Fatalf("pending-insert-dropped rejected:\n%s", out.Explain())
	}
}

func TestPartitioningIsolatesKeys(t *testing.T) {
	// Interleaved ops on two keys, each valid on its own.
	evs := []history.Event{
		setEv(0, history.OpInsert, 1, true, 1, 8),
		setEv(1, history.OpInsert, 2, true, 2, 3),
		setEv(1, history.OpContains, 2, true, 4, 5),
		setEv(1, history.OpDelete, 2, true, 6, 7),
		setEv(1, history.OpContains, 1, true, 9, 10),
	}
	out := CheckSet(evs)
	if !out.OK {
		t.Fatalf("valid two-key history rejected:\n%s", out.Explain())
	}
	if out.Partitions != 2 {
		t.Fatalf("got %d partitions, want 2", out.Partitions)
	}
}

func TestCounterexampleNamesCulprit(t *testing.T) {
	evs := []history.Event{
		setEv(0, history.OpInsert, 11, true, 1, 2),
		setEv(0, history.OpDelete, 11, true, 3, 4),
		setEv(1, history.OpContains, 11, true, 5, 6),
	}
	out := CheckSet(evs)
	if out.OK {
		t.Fatal("expected failure")
	}
	if out.Key != 11 {
		t.Fatalf("counterexample names key %d, want 11", out.Key)
	}
	exp := out.Explain()
	if !strings.Contains(exp, "Contains(11) = true") {
		t.Fatalf("explanation does not show the stuck op:\n%s", exp)
	}
	if len(out.Best) != 2 {
		t.Fatalf("longest prefix has %d ops, want 2:\n%s", len(out.Best), exp)
	}
}

func TestRegisterModel(t *testing.T) {
	m := RegisterModel(0)
	ev := func(w int32, op uint8, arg, out uint64, ok bool, inv, ret uint64) history.Event {
		return history.Event{Worker: w, Op: op, Arg: arg, Out: out, OK: ok, Inv: inv, Ret: ret}
	}
	valid := []history.Event{
		ev(0, history.OpCAS, 0, 1, true, 1, 2),
		ev(1, history.OpRead, 0, 1, false, 3, 4),
		ev(0, history.OpCAS, 0, 7, false, 5, 6), // state is 1, expected-old 0: must fail
		ev(1, history.OpCAS, 1, 2, true, 7, 8),
	}
	if out := Check(m, valid); !out.OK {
		t.Fatalf("valid register history rejected:\n%s", out.Explain())
	}
	invalid := []history.Event{
		ev(0, history.OpCAS, 0, 1, true, 1, 2),
		ev(1, history.OpCAS, 0, 2, true, 3, 4), // old=0 cannot succeed after state moved to 1
	}
	if out := Check(m, invalid); out.OK {
		t.Fatal("spurious CAS success accepted")
	}
}

func TestCounterModel(t *testing.T) {
	m := CounterModel(0)
	inc := func(w int32, out uint64, inv, ret uint64) history.Event {
		return history.Event{Worker: w, Op: history.OpIncGet, Out: out, Inv: inv, Ret: ret}
	}
	valid := []history.Event{inc(0, 0, 1, 4), inc(1, 1, 2, 3)}
	if out := Check(m, valid); !out.OK {
		t.Fatalf("valid counter history rejected:\n%s", out.Explain())
	}
	// Two increments both observing 0: one increment was lost.
	invalid := []history.Event{inc(0, 0, 1, 4), inc(1, 0, 2, 3)}
	if out := Check(m, invalid); out.OK {
		t.Fatal("lost increment accepted")
	}
}

func TestEmptyAndSingleHistories(t *testing.T) {
	if out := CheckSet(nil); !out.OK {
		t.Fatal("empty history rejected")
	}
	one := []history.Event{setEv(0, history.OpContains, 1, false, 1, 2)}
	if out := CheckSet(one); !out.OK {
		t.Fatal("single-op history rejected")
	}
	bad := []history.Event{setEv(0, history.OpContains, 1, true, 1, 2)}
	if out := CheckSet(bad); out.OK {
		t.Fatal("phantom contains accepted")
	}
}

// TestBudgetExhaustedIsInconclusive runs the search with a budget too
// small for a set and a transactional history: the verdict must be
// inconclusive, not a pass or a violation.
func TestBudgetExhaustedIsInconclusive(t *testing.T) {
	m := SetModel()
	set := search(&modelState{m: &m}, []history.Event{
		setEv(0, history.OpInsert, 3, true, 1, 2),
		setEv(0, history.OpDelete, 3, true, 3, 4),
		setEv(1, history.OpContains, 3, false, 5, 6),
	}, "linearizable", 3)
	rec := history.NewRecorder(2, 4)
	for i := 0; i < 4; i++ {
		s := rec.Shard(i % 2)
		idx := s.BeginTx()
		s.TxRead(idx, 10, uint64(i))
		s.TxWrite(idx, 10, uint64(i+1))
		s.End(idx, true, 0)
	}
	tx := checkSerializable(rec, 3)
	for name, out := range map[string]Outcome{"set": set, "tx": tx} {
		if !out.Inconclusive || out.OK {
			t.Errorf("%s: OK=%v Inconclusive=%v under a 3-iteration budget", name, out.OK, out.Inconclusive)
		}
		if err := out.Err(); err == nil || !strings.Contains(err.Error(), "inconclusive") {
			t.Errorf("%s: Err() = %v, want an inconclusive verdict", name, err)
		}
	}
}
