// Serializability recording and checking for the Vacation workload.
//
// Every client action is one STM transaction; RunTx brackets it with a
// history.OpTx event carrying the committed attempt's read and write sets
// at raw simulated addresses. The populating transactions are recorded
// too, so linearizability.CheckSerializable can replay the whole
// history against a zero-initialized word map — exactly the simulated
// memory the STM ran over. A strictly serializable history plus intact
// table invariants is the workload-level correctness statement for NOrec
// and tagged NOrec alike.
package vacation

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/linearizability"
	"repro/internal/stm"
)

// RunTx executes fn as one transaction of m's STM on th, recording the
// committed attempt into shard s as a history.OpTx event: read/write sets
// via TxRead/TxWrite, aborted-attempt count in Arg.
func RunTx(m *Manager, th core.Thread, s *history.Shard, fn func(tx *stm.Tx)) {
	idx := s.BeginTx()
	attempts := 0
	var last *stm.Tx
	m.tm.RunCached(th, func(tx *stm.Tx) {
		attempts++
		last = tx
		fn(tx)
	})
	// After RunCached returns, last still holds the committed attempt's
	// footprint (see stm.Tx.ReadSet).
	last.ReadSet(func(a core.Addr, v uint64) { s.TxRead(idx, uint64(a), v) })
	last.WriteSet(func(a core.Addr, v uint64) { s.TxWrite(idx, uint64(a), v) })
	s.SetArg(idx, uint64(attempts-1))
	s.End(idx, true, 0)
}

// RecordedPopulate is Populate with every transaction recorded into s.
func RecordedPopulate(m *Manager, th core.Thread, s *history.Shard, p Params, seed int64) {
	populateWith(m, th, p, seed, func(fn func(tx *stm.Tx)) { RunTx(m, th, s, fn) })
}

// RecordedClient is Client with every transaction recorded into s.
func RecordedClient(m *Manager, th core.Thread, s *history.Shard, p Params, seed int64) int {
	return clientWith(m, th, p, seed, func(fn func(tx *stm.Tx)) { RunTx(m, th, s, fn) })
}

// SerializeReport is the result of one RunSerializeSuite pass.
type SerializeReport struct {
	// Outcome is the strict-serializability verdict over all recorded
	// transactions (populate included).
	Outcome linearizability.Outcome
	// TablesOK/TablesDetail report the quiescent conservation invariants
	// (Manager.CheckTables).
	TablesOK     bool
	TablesDetail string
}

// Err returns nil when the pass was fully correct, else an error whose
// message embeds the printed counterexample or invariant violation.
func (r *SerializeReport) Err() error {
	if err := r.Outcome.Err(); err != nil {
		return fmt.Errorf("vacation history: %w", err)
	}
	if !r.TablesOK {
		return fmt.Errorf("vacation tables: %s", r.TablesDetail)
	}
	return nil
}

// initRecorder wraps a Memory during Manager construction so the tables'
// non-transactional initialization (txmap.NewHashed stores its NIL sentinel
// and root words with plain Stores) is captured and can be replayed as a
// synthetic first transaction — without it, the zero-initialized checker
// model would reject the very first root-pointer read.
type initRecorder struct {
	core.Memory
	writes []history.TxAccess
}

func (ir *initRecorder) Thread(id int) core.Thread {
	return &initThread{Thread: ir.Memory.Thread(id), ir: ir}
}

type initThread struct {
	core.Thread
	ir *initRecorder
}

func (t *initThread) Store(a core.Addr, v uint64) {
	t.ir.writes = append(t.ir.writes, history.TxAccess{Addr: uint64(a), Val: v})
	t.Thread.Store(a, v)
}

// NewRecordedManager builds NewHashedManager(mem, tm, customerBits,
// resourceBits), capturing its construction-time plain stores
// (txmap.NewHashed writes NIL sentinels and root words outside any
// transaction) and emitting them into s as a synthetic first committed
// transaction. Any serializability check over transactions run against the
// returned manager needs that initial transaction — without it the
// checker's zero-initialized word map rejects the first root read.
// The given shard must real-time-precede all recorded client work (i.e.
// call this before any client starts, which construction order gives you
// for free).
func NewRecordedManager(mem core.Memory, tm *stm.TM, customerBits, resourceBits uint, s *history.Shard) *Manager {
	ir := &initRecorder{Memory: mem}
	m := NewHashedManager(ir, tm, customerBits, resourceBits)
	idx := s.BeginTx()
	for _, w := range ir.writes {
		s.TxWrite(idx, w.Addr, w.Val)
	}
	s.End(idx, true, 0)
	return m
}

// RunSerializeSuite runs a recorded Vacation workload — a sequential
// populate followed by `workers` concurrent recorded clients — on the
// given memory and STM, over tables of the given shape (NewHashedManager;
// 0, 0 is STAMP's), then checks strict serializability of the transaction
// history and the table conservation invariants. It works on any
// core.Memory backend; the clients run as one core.RunPhase.
func RunSerializeSuite(mem core.Memory, tm *stm.TM, customerBits, resourceBits uint, p Params, workers int, seed int64) SerializeReport {
	// Shard w records client w; the extra shard records the init tx and
	// populate (they run alone before the clients start, so their events
	// real-time-precede all client transactions and pin the initial table
	// state).
	rec := history.NewRecorder(workers+1, p.Relations*(numKinds+1)+p.Transactions)
	m := NewRecordedManager(mem, tm, customerBits, resourceBits, rec.Shard(workers))
	RecordedPopulate(m, mem.Thread(0), rec.Shard(workers), p, seed)

	core.RunPhase(mem, workers, func(w int, th core.Thread) {
		RecordedClient(m, th, rec.Shard(w), p, seed*131+int64(w)+1)
	})

	var rep SerializeReport
	rep.TablesOK, rep.TablesDetail = m.CheckTables(mem.Thread(0))
	rep.Outcome = linearizability.CheckSerializable(rec)
	return rep
}
