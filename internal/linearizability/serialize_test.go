package linearizability_test

import (
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/linearizability"
)

// tx records one whole transaction into shard w: reads as (addr, observed
// value) pairs, then writes, bracketed by BeginTx/End so the invocation
// order of successive calls is the real-time order.
func tx(rec *history.Recorder, w int, reads, writes [][2]uint64) {
	s := rec.Shard(w)
	idx := s.BeginTx()
	for _, r := range reads {
		s.TxRead(idx, r[0], r[1])
	}
	for _, wr := range writes {
		s.TxWrite(idx, wr[0], wr[1])
	}
	s.End(idx, true, 0)
}

func TestSerializableHistoryAccepted(t *testing.T) {
	rec := history.NewRecorder(2, 8)
	// Zero-initialized state: a fresh read of any address sees 0.
	tx(rec, 0, [][2]uint64{{10, 0}}, [][2]uint64{{10, 1}})
	// Disjoint increments commute.
	tx(rec, 0, [][2]uint64{{10, 1}}, [][2]uint64{{10, 2}})
	tx(rec, 1, [][2]uint64{{20, 0}}, [][2]uint64{{20, 7}})
	out := linearizability.CheckSerializable(rec)
	if !out.OK {
		t.Fatalf("serializable history rejected:\n%s", out.Explain())
	}
	if out.Ops != 3 {
		t.Fatalf("checked %d txs, want 3", out.Ops)
	}
}

func TestLostUpdateRejected(t *testing.T) {
	rec := history.NewRecorder(2, 8)
	// Two concurrent read-modify-writes that both observed the initial
	// value: in any serial order the second must observe the first's write.
	s0, s1 := rec.Shard(0), rec.Shard(1)
	i0, i1 := s0.BeginTx(), s1.BeginTx()
	s0.TxRead(i0, 10, 0)
	s0.TxWrite(i0, 10, 1)
	s1.TxRead(i1, 10, 0)
	s1.TxWrite(i1, 10, 2)
	s0.End(i0, true, 0)
	s1.End(i1, true, 0)
	out := linearizability.CheckSerializable(rec)
	if out.OK || out.Inconclusive {
		t.Fatalf("lost-update history accepted (inconclusive=%v)", out.Inconclusive)
	}
	if !strings.Contains(out.Explain(), "NOT strictly serializable") {
		t.Fatalf("unexpected explanation:\n%s", out.Explain())
	}
}

func TestRealTimeOrderEnforced(t *testing.T) {
	rec := history.NewRecorder(2, 8)
	// T1 returns before T2 is invoked, so T2 must serialize after T1 —
	// yet T2 read the pre-T1 value. Plain serializability would accept
	// this (T2 first); strict serializability must not.
	tx(rec, 0, nil, [][2]uint64{{10, 5}})
	tx(rec, 1, [][2]uint64{{10, 0}}, nil)
	out := linearizability.CheckSerializable(rec)
	if out.OK {
		t.Fatal("stale read after real-time-ordered commit accepted")
	}
	if len(out.Window) == 0 || !strings.Contains(out.Explain(), "observed 0") {
		t.Fatalf("counterexample does not name the stale read:\n%s", out.Explain())
	}
}

func TestUncommittedTxsIgnored(t *testing.T) {
	rec := history.NewRecorder(1, 8)
	s := rec.Shard(0)
	// An aborted transaction's footprint constrains nothing, however
	// inconsistent it looks.
	idx := s.BeginTx()
	s.TxRead(idx, 10, 999)
	s.End(idx, false, 0)
	// A pending transaction (worker stopped mid-attempt) likewise.
	s.BeginTx()
	out := linearizability.CheckSerializable(rec)
	if !out.OK || out.Ops != 0 {
		t.Fatalf("aborted/pending txs not ignored: OK=%v txs=%d", out.OK, out.Ops)
	}
}
