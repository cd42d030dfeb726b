// Package history records concurrent operation histories — invocation and
// response events with logical timestamps — for linearizability checking.
//
// A Recorder is shared by all workers of one test run; each worker owns a
// Shard and brackets every operation with Begin/End. Timestamps come from a
// single atomic counter, so the recorded partial order is exactly the
// real-time order the checker needs: operation A happens-before operation B
// iff A's response timestamp precedes B's invocation timestamp. The
// per-operation cost is one atomic increment on each side plus an append
// into a preallocated per-worker slice, so recording perturbs the
// interleavings under test as little as possible.
package history

import "sync/atomic"

// Conventional operation codes. The Op field is caller-defined; these
// constants are the codes the stock linearizability models (set, register,
// counter) interpret. Harnesses with bespoke semantics may use their own
// codes with their own models.
const (
	// OpInsert / OpDelete / OpContains are the ordered-set operations
	// (Key = set key, OK = operation result).
	OpInsert uint8 = iota
	OpDelete
	OpContains
	// OpRead is a register/counter read (Out = value observed).
	OpRead
	// OpCAS is a compare-and-swap-style update (Arg/Out/OK meaning is
	// model-specific; see linearizability.RegisterModel).
	OpCAS
	// OpIncGet is a fetch-and-increment (Out = value before the increment).
	OpIncGet
	// OpRange is an atomic range scan over set keys (Key = low bound,
	// Arg = high bound, Out = observed membership encoded by the model,
	// OK = whether a snapshot was obtained at all).
	OpRange
	// OpKeys is an atomic whole-set snapshot (Out = observed membership
	// encoded by the model, OK as for OpRange).
	OpKeys
	// OpTx is one whole transaction: Key indexes the transaction's
	// footprint (read/write sets with values) in the recording shard —
	// fetch it with Recorder.TxOf. Arg counts the aborted attempts before
	// the commit; OK reports whether the transaction committed. Checked by
	// linearizability.CheckSerializable.
	OpTx
)

// pending marks an event whose response has not been recorded.
const pending = ^uint64(0)

// Event is one completed (or still-pending) operation.
type Event struct {
	// Worker is the recording shard's index.
	Worker int32
	// Op is the caller-defined operation code.
	Op uint8
	// Key is the operation's partition key (set key, register index, ...).
	Key uint64
	// Arg is an optional input argument beyond the key.
	Arg uint64
	// Out is an optional output value.
	Out uint64
	// OK is the operation's boolean result.
	OK bool
	// Inv and Ret are the logical invocation/response timestamps. Ret is
	// math.MaxUint64 while the operation is pending.
	Inv, Ret uint64
}

// Pending reports whether the event has no recorded response. A pending
// operation may or may not have taken effect; checkers must allow both.
func (e *Event) Pending() bool { return e.Ret == pending }

// TxAccess is one entry of a transaction's footprint: an address and the
// value observed there (read set) or installed there (write set).
type TxAccess struct {
	Addr, Val uint64
}

// TxData is the footprint of one recorded transaction: the read and write
// sets of the attempt that committed. Reads exclude addresses the
// transaction wrote first (those observe the transaction's own buffered
// value and constrain nothing externally).
type TxData struct {
	Reads  []TxAccess
	Writes []TxAccess
}

// Recorder collects events from concurrent workers.
type Recorder struct {
	clock  atomic.Uint64
	shards []Shard
}

// NewRecorder creates a recorder with one shard per worker, each sized for
// capacityHint events (0 picks a small default).
func NewRecorder(workers, capacityHint int) *Recorder {
	if capacityHint <= 0 {
		capacityHint = 64
	}
	r := &Recorder{shards: make([]Shard, workers)}
	for i := range r.shards {
		r.shards[i].rec = r
		r.shards[i].worker = int32(i)
		r.shards[i].events = make([]Event, 0, capacityHint)
	}
	return r
}

// Shard returns worker w's shard. Each shard must be used by at most one
// goroutine at a time.
func (r *Recorder) Shard(w int) *Shard { return &r.shards[w] }

// Events gathers every recorded event. Only valid once all workers have
// stopped recording.
func (r *Recorder) Events() []Event {
	n := 0
	for i := range r.shards {
		n += len(r.shards[i].events)
	}
	all := make([]Event, 0, n)
	for i := range r.shards {
		all = append(all, r.shards[i].events...)
	}
	return all
}

// TxOf returns the footprint of a recorded OpTx event. Only valid once
// the recording shard has stopped appending.
func (r *Recorder) TxOf(e *Event) *TxData {
	return &r.shards[e.Worker].txs[e.Key]
}

// Shard is one worker's event log.
type Shard struct {
	rec    *Recorder
	worker int32
	events []Event
	txs    []TxData
}

// Begin records an operation invocation and returns its index for End.
func (s *Shard) Begin(op uint8, key, arg uint64) int {
	s.events = append(s.events, Event{
		Worker: s.worker,
		Op:     op,
		Key:    key,
		Arg:    arg,
		Inv:    s.rec.clock.Add(1),
		Ret:    pending,
	})
	return len(s.events) - 1
}

// End records the response of the operation Begin returned idx for.
func (s *Shard) End(idx int, ok bool, out uint64) {
	e := &s.events[idx]
	e.OK = ok
	e.Out = out
	e.Ret = s.rec.clock.Add(1)
}

// BeginTx records a transaction invocation (an OpTx event backed by a
// fresh footprint) and returns its index for TxRead/TxWrite/SetArg/End.
func (s *Shard) BeginTx() int {
	s.txs = append(s.txs, TxData{})
	return s.Begin(OpTx, uint64(len(s.txs)-1), 0)
}

// TxRead appends (addr, observed value) to the transaction's read set.
func (s *Shard) TxRead(idx int, addr, val uint64) {
	t := &s.txs[s.events[idx].Key]
	t.Reads = append(t.Reads, TxAccess{Addr: addr, Val: val})
}

// TxWrite appends (addr, installed value) to the transaction's write set.
func (s *Shard) TxWrite(idx int, addr, val uint64) {
	t := &s.txs[s.events[idx].Key]
	t.Writes = append(t.Writes, TxAccess{Addr: addr, Val: val})
}

// SetArg rewrites the Arg of a recorded operation. Some attributes — e.g.
// which internal path an operation committed through — are only known once
// the operation returns, but the invocation timestamp must still come from
// Begin; record those by Begin/SetArg/End.
func (s *Shard) SetArg(idx int, arg uint64) { s.events[idx].Arg = arg }
