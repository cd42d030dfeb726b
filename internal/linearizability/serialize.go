// Strict serializability checking for transactional histories.
//
// Where the one-word models check single operations, transactions carry
// whole read and write sets (history.TxData). The committed transactions
// of a history are strictly serializable iff some total order — consistent
// with real time (T1 before T2 whenever T1 returned before T2 was invoked)
// — replays every transaction's read set exactly against the writes of its
// predecessors. That is linearizability of the transactions as operations
// on a word-addressed map, zero-initialized: exactly the simulated memory
// the STM runs over, provided the history also records the populating
// transactions. So the same search decides it, over mapState.
package linearizability

import (
	"fmt"

	"repro/internal/history"
)

// CheckSerializable verifies strict serializability of the committed OpTx
// events in the recorder's history; Ops counts them. Non-transactional
// events are ignored; pending transactions (workers stopped mid-retry) and
// aborted ones are excluded — an uncommitted attempt constrains nothing.
func CheckSerializable(rec *history.Recorder) Outcome {
	return checkSerializable(rec, maxIters)
}

func checkSerializable(rec *history.Recorder, budget uint64) Outcome {
	var txs []history.Event
	for _, e := range rec.Events() {
		if e.Op == history.OpTx && e.OK && !e.Pending() {
			txs = append(txs, e)
		}
	}
	st := &mapState{rec: rec, mem: map[uint64]uint64{}}
	out := search(st, txs, fmt.Sprintf("strictly serializable (map model, %d committed txs)", len(txs)), budget)
	out.Ops, out.Partitions = len(txs), 1
	return out
}

// mapState is a zero-initialized word-addressed map that transactions step
// through: a transaction applies when every read in its read set matches.
type mapState struct {
	rec *history.Recorder
	mem map[uint64]uint64
	// digest folds mix(addr, value) ^ mix(addr, 0) over every address, by
	// XOR, maintained as writes apply and undo. It is a function of the
	// map alone, not of the order of the writes that built it, so it can
	// name the state for the memo.
	digest uint64
	// undoLog holds the values each write displaced; marks holds the log's
	// length before each applied step.
	undoLog []history.TxAccess
	marks   []int
}

func mix(addr, val uint64) uint64 {
	h := uint64(14695981039346656037)
	h = (h ^ addr) * 1099511628211
	h = (h ^ val) * 1099511628211
	return h
}

func (s *mapState) set(addr, val uint64) {
	old := s.mem[addr]
	s.digest ^= mix(addr, old) ^ mix(addr, val)
	s.mem[addr] = val
}

func (s *mapState) step(e *history.Event) bool {
	tx := s.rec.TxOf(e)
	for _, r := range tx.Reads {
		if s.mem[r.Addr] != r.Val {
			return false
		}
	}
	s.marks = append(s.marks, len(s.undoLog))
	for _, w := range tx.Writes {
		s.undoLog = append(s.undoLog, history.TxAccess{Addr: w.Addr, Val: s.mem[w.Addr]})
		s.set(w.Addr, w.Val)
	}
	return true
}

func (s *mapState) undo() {
	mark := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	for k := len(s.undoLog) - 1; k >= mark; k-- {
		s.set(s.undoLog[k].Addr, s.undoLog[k].Val)
	}
	s.undoLog = s.undoLog[:mark]
}

func (s *mapState) key() uint64 { return s.digest }

func (s *mapState) format(e *history.Event, stuck bool) string {
	tx := s.rec.TxOf(e)
	line := fmt.Sprintf("w%d tx(reads=%d writes=%d aborts=%d) [%d,%d]",
		e.Worker, len(tx.Reads), len(tx.Writes), e.Arg, e.Inv, e.Ret)
	if !stuck {
		return line
	}
	for _, r := range tx.Reads {
		if v := s.mem[r.Addr]; v != r.Val {
			return line + fmt.Sprintf("\n      read of %#x observed %d, state has %d", r.Addr, r.Val, v)
		}
	}
	return line + "\n      read set matches here but no continuation completes"
}
