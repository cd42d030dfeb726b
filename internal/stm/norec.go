// Package stm implements the NOrec software transactional memory of
// Dalessandro, Spear and Scott (PPoPP 2010) over simulated memory, plus the
// paper's tagged variant (Section 5.2).
//
// NOrec has no ownership records: a single global sequence lock protects
// the commit protocol, writes are buffered in an indexed write set, and
// conflicts are detected by value-based validation (VBV) of the read set.
//
// The tagged variant tags every read-set line. A successful local tag
// validation proves the whole read set is unchanged, so readers stay
// consistent with zero coherence traffic — and, crucially, do not care
// about commits that touched none of their lines, where baseline NOrec
// must re-read its entire read set whenever the sequence lock moves. They
// do not read the sequence lock at all: a tagged TM's writers mark the
// lines they write for the length of their write-back
// (core.Thread.MarkWrite), so no validated read set straddles one. A
// failed tag validation aborts immediately (fail-fast, as the paper
// describes: "it would not need to perform value-based validation in order
// to simply fail"). Writers acquire the global lock with
// invalidate-and-swap on the lock line, so a doomed acquisition fails
// locally instead of stealing the line. Because tags are advisory
// (spurious evictions), a transaction that keeps failing its tag
// validation retries in value-based mode — the fallback path.
package stm

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/reclaim"
)

// tagAbortLimit is the number of consecutive tag-validation aborts after
// which a transaction retries in value-based (untagged) mode.
const tagAbortLimit = 3

// commitIASLimit bounds tagged lock-acquisition attempts before falling
// back to the CAS path.
const commitIASLimit = 4

// TM is one transactional memory instance (one global sequence lock).
type TM struct {
	mem    core.Memory
	seq    core.Addr
	tagged bool

	// FaultTornRead, when set on a tagged instance, disables the torn-read
	// guard in the tagged Read fast path: the read skips its Validate, so a
	// tag that a writer's mark or store has failed goes unnoticed and the
	// values read can span that writer's in-flight writeBack. This is the
	// opacity bug the serializability checker first caught in this STM; it
	// is kept injectable so serializability suites can prove they would
	// catch it again. Testing only — never set in experiments.
	FaultTornRead bool

	// Aborts counts transaction attempt aborts, for experiment reporting.
	Aborts atomic.Uint64
	// TagAborts counts the subset of aborts triggered by a failed tag
	// validation (real conflicts and spurious evictions alike).
	TagAborts atomic.Uint64
	// Commits counts committed transactions.
	Commits atomic.Uint64

	// dom, when set, brackets every transaction attempt in a reclamation
	// domain so structures built on the TM can retire replaced nodes: an
	// optimistic reader's loads of a freed node are bounded by its next
	// validation, but the bracket keeps such nodes from being recycled
	// under a still-running attempt at all.
	dom *reclaim.Domain

	// cached holds one reusable Tx per thread id for RunCached; see
	// Prepare.
	cached []*Tx

	// obs holds per-thread attempt observers; see SetTxObserver.
	obs []TxObserver
}

// TxObserver receives per-attempt lifecycle events from transactions run by
// one thread: attempt begin, attempt outcome (committed, or aborted — with
// the tag-validation aborts distinguished from value-based ones), and
// tag-set overflow (the attempt degraded to value-based mode). The serve
// layer's span recorder implements it to attribute a slow request to its
// retry loop. Hooks run on the transaction's thread, inside the attempt's
// dynamic extent; they must not start transactions themselves.
type TxObserver interface {
	TxAttemptStart()
	TxAttemptEnd(committed, fromTags bool)
	TxTagOverflow()
}

// SetTxObserver installs o as thread id's attempt observer (nil removes
// it). Only call while the thread is quiescent. The hot path cost when no
// observer is installed is one nil check per attempt.
func (tm *TM) SetTxObserver(id int, o TxObserver) {
	if id < 0 {
		return
	}
	if id >= len(tm.obs) {
		grown := make([]TxObserver, id+1)
		copy(grown, tm.obs)
		tm.obs = grown
	}
	tm.obs[id] = o
}

// observer returns thread id's observer, or nil.
func (tm *TM) observer(id int) TxObserver {
	if id < 0 || id >= len(tm.obs) {
		return nil
	}
	return tm.obs[id]
}

// SetReclaim attaches a reclamation domain: every transaction attempt runs
// inside an Enter/Exit bracket on it. Only call while quiescent.
func (tm *TM) SetReclaim(d *reclaim.Domain) { tm.dom = d }

func (tm *TM) enter(th core.Thread) {
	if tm.dom != nil {
		tm.dom.Handle(th.ID()).Enter()
	}
}

func (tm *TM) exit(th core.Thread) {
	if tm.dom != nil {
		tm.dom.Handle(th.ID()).Exit()
	}
}

// NewNOrec creates a baseline NOrec instance.
func NewNOrec(mem core.Memory) *TM {
	return &TM{mem: mem, seq: mem.Alloc(1)}
}

// NewTagged creates a tagged NOrec instance.
func NewTagged(mem core.Memory) *TM {
	return &TM{mem: mem, seq: mem.Alloc(1), tagged: true}
}

// Tagged reports whether this instance uses memory tagging.
func (tm *TM) Tagged() bool { return tm.tagged }

// SeqAddr returns the global sequence lock's address (for tests).
func (tm *TM) SeqAddr() core.Addr { return tm.seq }

type writeEntry struct {
	addr core.Addr
	val  uint64
}

type readEntry struct {
	addr core.Addr
	val  uint64
}

// Tx is one transaction attempt. It must only be used inside the function
// passed to Run, on the thread Run was given.
type Tx struct {
	tm *TM
	th core.Thread

	v       uint64 // sequence number at which the read set is consistent
	reads   []readEntry
	writes  []writeEntry
	wIndex  map[core.Addr]int
	useTags bool

	// Attempt-scoped hooks (OnCommit/OnAbort), run after the attempt's
	// bracket closes: structures defer node retires to commit time and
	// reclaim speculative allocations on abort.
	commitHooks []func()
	abortHooks  []func()

	// consecutive tag-validation aborts; survives across attempts so a
	// pathological tag set degrades to value-based mode.
	tagAborts int

	// obs is the attempt's observer (set by runOnce from the TM's
	// per-thread table), reachable from dropTags.
	obs TxObserver
}

// abortSentinel unwinds an aborted transaction attempt back to Run.
type abortSentinel struct{ fromTags bool }

// Thread returns the thread this transaction runs on (for hooks that need
// it, e.g. pool retires).
func (tx *Tx) Thread() core.Thread { return tx.th }

// Run executes fn transactionally, retrying on conflict until it commits.
// fn may be invoked multiple times; it must touch shared state only through
// tx.Read and tx.Write.
func (tm *TM) Run(th core.Thread, fn func(tx *Tx)) {
	tx := &Tx{tm: tm, th: th}
	for {
		if tm.runOnce(tx, fn) {
			tm.Commits.Add(1)
			return
		}
		tm.Aborts.Add(1)
	}
}

// Prepare preallocates one reusable transaction per thread id for
// RunCached. Call while quiescent, before any RunCached call; a TM already
// prepared for at least that many threads is left as it is.
func (tm *TM) Prepare(threads int) {
	if len(tm.cached) >= threads {
		return
	}
	tm.cached = make([]*Tx, threads)
	for i := range tm.cached {
		tm.cached[i] = &Tx{tm: tm, wIndex: make(map[core.Addr]int, 8)}
	}
}

// RunCached is Run on the calling thread's preallocated transaction: the
// read/write sets, the write index, and the Tx itself are reused across
// calls, so steady-state transactions allocate nothing. Requires a prior
// Prepare(threads) with threads > th.ID(); at most one goroutine may use a
// given thread id at a time (the same ownership rule as the thread handle
// itself). Semantics are identical to Run.
func (tm *TM) RunCached(th core.Thread, fn func(tx *Tx)) {
	tx := tm.cached[th.ID()]
	tx.th = th
	for {
		if tm.runOnce(tx, fn) {
			tm.Commits.Add(1)
			return
		}
		tm.Aborts.Add(1)
	}
}

// runOnce runs a single attempt, reporting whether it committed.
func (tm *TM) runOnce(tx *Tx, fn func(tx *Tx)) (committed bool) {
	tx.obs = tm.observer(tx.th.ID())
	if tx.obs != nil {
		tx.obs.TxAttemptStart()
	}
	tm.enter(tx.th)
	tx.begin()
	defer func() {
		tx.th.ClearTagSet()
		tm.exit(tx.th)
		if r := recover(); r != nil {
			if a, ok := r.(abortSentinel); ok {
				if a.fromTags {
					tx.tagAborts++
					tm.TagAborts.Add(1)
				} else {
					tx.tagAborts = 0
				}
				committed = false
				if tx.obs != nil {
					tx.obs.TxAttemptEnd(false, a.fromTags)
				}
				tx.runHooks(false)
				return
			}
			panic(r)
		}
		tx.tagAborts = 0
		if tx.obs != nil {
			tx.obs.TxAttemptEnd(true, false)
		}
		tx.runHooks(true)
	}()
	fn(tx)
	tx.commit()
	return true
}

// OnCommit registers f to run once, outside the transaction, if this
// attempt commits. Hooks are discarded when the attempt aborts.
func (tx *Tx) OnCommit(f func()) { tx.commitHooks = append(tx.commitHooks, f) }

// OnAbort registers f to run once, outside the transaction, if this attempt
// aborts (each retried attempt re-registers its own hooks).
func (tx *Tx) OnAbort(f func()) { tx.abortHooks = append(tx.abortHooks, f) }

// runHooks fires the attempt's hooks after its bracket has closed.
func (tx *Tx) runHooks(committed bool) {
	hooks := tx.abortHooks
	if committed {
		hooks = tx.commitHooks
	}
	for _, f := range hooks {
		f()
	}
	tx.commitHooks = tx.commitHooks[:0]
	tx.abortHooks = tx.abortHooks[:0]
}

// begin is TXBegin: record the sequence number at which we start. The
// tagged variant begins tagging its read set as it grows; after repeated
// tag-validation aborts the attempt runs in value-based mode (the
// advisory-tags fallback).
func (tx *Tx) begin() {
	tx.reads = tx.reads[:0]
	// wIndex is empty exactly when writes is (the rule Read's probe relies
	// on), so only an attempt that follows a writing one pays for the clear.
	// The map itself is kept: reattempts and cached txs reuse it.
	if len(tx.writes) != 0 {
		clear(tx.wIndex)
		tx.writes = tx.writes[:0]
	}
	tx.commitHooks = tx.commitHooks[:0]
	tx.abortHooks = tx.abortHooks[:0]
	tx.useTags = tx.tm.tagged && tx.tagAborts < tagAbortLimit
	tx.th.ClearTagSet()
	tx.v = tx.spinSeq()
}

// dropTags downgrades the attempt to value-based validation only
// (tag-set overflow: the hardware's graceful degradation path).
func (tx *Tx) dropTags() {
	if tx.obs != nil {
		tx.obs.TxTagOverflow()
	}
	tx.th.ClearTagSet()
	tx.useTags = false
	// The sequence lock may have moved while tags covered consistency;
	// re-establish the value-based invariant.
	if tx.th.Load(tx.tm.seq) != tx.v {
		tx.validate()
	}
}

// spinSeq is ReadSequence: wait until the global lock is unlocked (even)
// and return it.
func (tx *Tx) spinSeq() uint64 {
	for {
		v := tx.th.Load(tx.tm.seq)
		if v%2 == 0 {
			return v
		}
	}
}

// Read is TXRead: return the transactionally consistent value at a.
func (tx *Tx) Read(a core.Addr) uint64 {
	// Read-your-own-writes. wIndex is empty exactly when writes is, and every
	// GET and the read-only prefix of every update would otherwise pay a map
	// probe per read for a map known to be empty.
	if len(tx.writes) != 0 {
		if i, ok := tx.wIndex[a]; ok {
			return tx.writes[i].val
		}
	}
	if tx.useTags {
		if !tx.th.AddTag(a, core.WordSize) {
			tx.dropTags()
		}
	}
	v := tx.th.Load(a)
	if tx.useTags {
		// Fast path: every read-set line (including a's) is tagged. If
		// none was invalidated, every recorded value — and v — is current
		// at this instant: commits that did not touch our lines are
		// irrelevant, and the sequence lock is not read at all. Nor can a
		// writer be seen half way through its writeBack, which marks every
		// line it writes before its first store: a tag on one of them
		// taken before the mark was evicted by it, and one taken under the
		// mark fails. A failed validation aborts immediately, with no
		// value-based re-validation.
		if tx.tm.FaultTornRead || tx.th.Validate() {
			tx.reads = append(tx.reads, readEntry{addr: a, val: v})
			return v
		}
		panic(abortSentinel{fromTags: true})
	}
	for tx.th.Load(tx.tm.seq) != tx.v {
		tx.validate()
		v = tx.th.Load(a)
	}
	tx.reads = append(tx.reads, readEntry{addr: a, val: v})
	return v
}

// ReadSet invokes f for every read-set entry of the current attempt: the
// address and the value the transaction observed there. Reads satisfied
// from the transaction's own write buffer are not in the read set. Called
// after Run returns, it yields the committed attempt's footprint (begin
// resets the sets only when a new attempt starts) — history recorders use
// exactly that to emit history.OpTx events.
func (tx *Tx) ReadSet(f func(a core.Addr, v uint64)) {
	for i := range tx.reads {
		f(tx.reads[i].addr, tx.reads[i].val)
	}
}

// WriteSet invokes f for every write-set entry of the current attempt:
// the address and the final value the transaction installed there (one
// entry per address; earlier buffered values are superseded).
func (tx *Tx) WriteSet(f func(a core.Addr, v uint64)) {
	for i := range tx.writes {
		f(tx.writes[i].addr, tx.writes[i].val)
	}
}

// validate is TXValidate's value-based validation: establish a new
// sequence number at which the entire read set is consistent, or abort.
func (tx *Tx) validate() {
	for {
		time := tx.spinSeq()
		for i := range tx.reads {
			e := &tx.reads[i]
			if tx.th.Load(e.addr) != e.val {
				panic(abortSentinel{})
			}
		}
		if tx.th.Load(tx.tm.seq) == time {
			tx.v = time
			return
		}
	}
}

// Write is TXWrite: buffer the store in the indexed write set.
func (tx *Tx) Write(a core.Addr, v uint64) {
	if tx.wIndex == nil {
		tx.wIndex = make(map[core.Addr]int, 8)
	}
	if i, ok := tx.wIndex[a]; ok {
		tx.writes[i].val = v
		return
	}
	tx.wIndex[a] = len(tx.writes)
	tx.writes = append(tx.writes, writeEntry{addr: a, val: v})
}

// commit is TXCommit. Read-only transactions commit immediately (their
// consistency was maintained read-by-read). Writers acquire the sequence
// lock, replay the write buffer, and release.
//
// The tagged acquisition: clear the read-set tags (their job is done — the
// set is known consistent as of sequence number tx.v), tag the lock line,
// check it still holds tx.v, and IAS it to tx.v+1. Success proves no other
// writer committed since tx.v, which is exactly NOrec's commit condition —
// with the difference that a failed acquisition is detected locally
// instead of through a coherence round trip.
func (tx *Tx) commit() {
	if len(tx.writes) == 0 {
		return
	}
	th, tm := tx.th, tx.tm
	if tx.useTags {
		// The fast path above kept the read set consistent, but tx.v may
		// be stale (commits that didn't touch us moved the lock). Settle
		// the value-based invariant once before acquiring.
		th.ClearTagSet()
		if th.Load(tm.seq) != tx.v {
			tx.validate()
		}
		for attempt := 0; attempt < commitIASLimit; attempt++ {
			if !th.AddTag(tm.seq, core.WordSize) {
				break
			}
			if th.Load(tm.seq) == tx.v && th.IAS(tm.seq, tx.v+1) {
				th.ClearTagSet()
				tx.writeBack()
				return
			}
			th.ClearTagSet()
			tx.validate()
		}
		// Advisory-tags fallback: finish with the software protocol.
	}
	for !th.CAS(tm.seq, tx.v, tx.v+1) {
		tx.validate()
	}
	tx.writeBack()
}

// writeBack replays the write buffer and releases the lock; the caller has
// acquired the sequence lock at tx.v+1. A tagged TM marks every write line
// before the first store and unmarks them after the last, before the
// release: that is what lets its tagged reads skip the lock (Read).
func (tx *Tx) writeBack() {
	th, tagged := tx.th, tx.tm.tagged
	if tagged {
		for i := range tx.writes {
			th.MarkWrite(tx.writes[i].addr, core.WordSize)
		}
	}
	for i := range tx.writes {
		th.Store(tx.writes[i].addr, tx.writes[i].val)
	}
	if tagged {
		th.UnmarkWrites()
	}
	th.Store(tx.tm.seq, tx.v+2)
}
