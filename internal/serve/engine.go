package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/reclaim"
	"repro/internal/skiplist"
	"repro/internal/stm"
	"repro/internal/telemetry"
	"repro/internal/txmap"
	"repro/internal/vacation"
	"repro/internal/vtags"
)

// Engine owns the storage planes and the worker pool. Connections are
// bound to workers round-robin; each worker owns one backend thread, and
// a mutex serializes the requests of the connections sharing it (the
// mutex also provides the happens-before edge the thread handle's
// single-goroutine contract needs).
type Engine struct {
	mem *vtags.Memory

	kvTM  *stm.TM
	resTM *stm.TM
	kv    *txmap.Map // 1<<kvTreeBits hashed trees under kvTM
	set   *skiplist.List
	res   *vacation.Manager

	dom     *reclaim.Domain
	kvPool  *reclaim.Pool
	setPool *reclaim.Pool

	workers []*Worker
}

// kvTreeBits sizes the KV plane: one txmap of 1<<kvTreeBits hashed trees
// under kvTM. KV commands are point operations, so the plane needs no order
// across keys, and a tagged NOrec read costs one AddTag, Load and Validate
// per word it reads: spreading 32 768 keys over 32 768 trees leaves each
// tree about one key deep, so a GET reads its root word and one node. A
// tree costs one root word; 2^16 would add about twice the root lines' heap
// for little more depth (DESIGN.md, "Transactional red-black map").
const kvTreeBits = 15

// resCustomerBits and resKindBits size the reservation plane: customers over
// 1<<resCustomerBits hashed trees and each resource kind over 1<<resKindBits
// (vacation.NewHashedManager). Customer ids are named by clients and the
// table grows under traffic (3 079 customers after the benchmarks'
// mixed-write set-up, about 31 000 after six seconds of its traffic);
// every served workload populates 1024 relations per kind. RESV, BILL and
// CANCEL then read a root word and a node or two per table they touch: a
// RESV makes about 68 vtags operations, against 370 over one tree per table
// (TestResPlaneCost). This shape leaves the served heap unchanged; 2^15
// customer trees, or 2^14 per kind, would not (DESIGN.md, "Transactional
// red-black map").
const (
	resCustomerBits = 14
	resKindBits     = 10
)

// Worker is one engine lane: a backend thread plus everything needed to
// execute requests on it without allocating — argument slots written
// before entering the STM and closures bound to those slots once at
// construction.
type Worker struct {
	id  int
	eng *Engine

	mu sync.Mutex // serializes this worker's connections
	th core.Thread
	oc core.OpClocked // the thread's clock and failure count, diffed around each request; nil if it has none

	// Argument/result slots for the preallocated closures.
	key, val, out uint64
	ok            bool
	cust, kind    uint64
	resID, num    uint64
	price         uint64

	getFn, putFn, delFn func(tx *stm.Tx)
	resvFn, billFn      func(tx *stm.Tx)
	cancelFn, addCustFn func(tx *stm.Tx)
	addResFn, delResFn  func(tx *stm.Tx)
	qpriceFn            func(tx *stm.Tx)

	// txShard, when recording is on, receives one history.OpTx event per
	// reservation transaction (footprints captured server-side; KV/set
	// ops are recorded at the wire by the client).
	txShard *history.Shard

	// sr, when spans are armed, records this worker's request spans.
	// Single-writer under mu.
	sr *telemetry.SpanRecorder
}

// EngineConfig selects the engine's storage configuration.
type EngineConfig struct {
	Workers  int
	MemBytes int
	MaxTags  int  // 0 = backend default
	Tagged   bool // tagged NOrec (true) or baseline NOrec for both TMs

	// ReclaimPolicy: PolicyImmediate or PolicyEpoch wire reclamation pools
	// under the KV and set planes; leave Reclaim false to run unreclaimed.
	Reclaim       bool
	ReclaimPolicy reclaim.Policy

	// Vacation populate: Relations > 0 pre-populates the reservation
	// tables with that many relations (STAMP's -r).
	Relations int
	Seed      int64

	// RecordTx, when non-nil, records every reservation transaction
	// (including the populate and table init) for serializability
	// checking. Needs Workers+1 shards: shard Workers holds init+populate.
	RecordTx *history.Recorder
}

// newEngine builds the storage planes and worker pool. The populate runs
// on worker 0's thread before any traffic.
func newEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("serve: need at least 1 worker")
	}
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 1 << 30
	}
	var opts []vtags.Option
	if cfg.MaxTags > 0 {
		opts = append(opts, vtags.WithMaxTags(cfg.MaxTags))
	}
	e := &Engine{mem: vtags.New(cfg.MemBytes, cfg.Workers, opts...)}

	newTM := stm.NewNOrec
	if cfg.Tagged {
		newTM = stm.NewTagged
	}
	e.kvTM = newTM(e.mem)
	e.resTM = newTM(e.mem)
	e.kvTM.Prepare(cfg.Workers)
	e.resTM.Prepare(cfg.Workers)

	if cfg.Reclaim {
		e.dom = reclaim.NewDomainFor(e.mem)
		e.mem.SetReclaim(e.dom)
		e.kvTM.SetReclaim(e.dom)
		e.resTM.SetReclaim(e.dom)
	}

	e.kv = txmap.NewHashed(e.mem, kvTreeBits)
	e.set = skiplist.NewVAS(e.mem)
	if cfg.Reclaim {
		e.kvPool = reclaim.NewPool(e.dom, txmap.NodeWords, cfg.ReclaimPolicy)
		e.kv.SetReclaim(e.kvPool)
		e.setPool = reclaim.NewPool(e.dom, skiplist.NodeWords, cfg.ReclaimPolicy)
		e.set.SetReclaim(e.setPool)
	}

	if cfg.RecordTx != nil {
		e.res = vacation.NewRecordedManager(e.mem, e.resTM, resCustomerBits, resKindBits, cfg.RecordTx.Shard(cfg.Workers))
	} else {
		e.res = vacation.NewHashedManager(e.mem, e.resTM, resCustomerBits, resKindBits)
	}
	if cfg.Relations > 0 {
		p := vacation.Params{Relations: cfg.Relations}
		th0 := e.mem.Thread(0)
		if cfg.RecordTx != nil {
			vacation.RecordedPopulate(e.res, th0, cfg.RecordTx.Shard(cfg.Workers), p, cfg.Seed)
		} else {
			vacation.Populate(e.res, th0, p, cfg.Seed)
		}
	}

	e.workers = make([]*Worker, cfg.Workers)
	for i := range e.workers {
		w := &Worker{id: i, eng: e, th: e.mem.Thread(i)}
		w.oc, _ = w.th.(core.OpClocked)
		if cfg.RecordTx != nil {
			w.txShard = cfg.RecordTx.Shard(i)
		}
		w.bindClosures()
		e.workers[i] = w
	}
	return e, nil
}

// armSpans installs a span recorder on every worker and registers it as
// the STM attempt observer on both TMs, so request spans carry per-attempt
// records with abort causes. Quiescent only (run before traffic).
func (e *Engine) armSpans(fr *telemetry.FlightRecorder, epoch time.Time, pol telemetry.TailPolicy) {
	for _, w := range e.workers {
		w.sr = telemetry.NewSpanRecorder(fr, w.id, epoch, pol)
		e.kvTM.SetTxObserver(w.th.ID(), w.sr)
		e.resTM.SetTxObserver(w.th.ID(), w.sr)
	}
}

// TMStats is one TM's cumulative attempt counters.
type TMStats struct {
	Commits   uint64 `json:"commits"`
	Aborts    uint64 `json:"aborts"`
	TagAborts uint64 `json:"tag_aborts"`
}

// EngineStats is the engine-wide counter snapshot. Every source is an
// atomic, so it is safe to take mid-run (the flight-recorder dump and the
// metrics plane both do).
type EngineStats struct {
	KV           TMStats `json:"kv_tm"`
	Res          TMStats `json:"res_tm"`
	TagOverflows uint64  `json:"tag_overflows"`
	TagEvictions uint64  `json:"tag_evictions"`
}

// Stats snapshots the engine counters. Safe at any time.
func (e *Engine) Stats() EngineStats {
	ov, ev := e.mem.TagStats()
	return EngineStats{
		KV: TMStats{
			Commits:   e.kvTM.Commits.Load(),
			Aborts:    e.kvTM.Aborts.Load(),
			TagAborts: e.kvTM.TagAborts.Load(),
		},
		Res: TMStats{
			Commits:   e.resTM.Commits.Load(),
			Aborts:    e.resTM.Aborts.Load(),
			TagAborts: e.resTM.TagAborts.Load(),
		},
		TagOverflows: ov,
		TagEvictions: ev,
	}
}

// bindClosures builds the per-worker transaction bodies once; they read
// their arguments from the worker's slots, so executing them allocates
// nothing.
func (w *Worker) bindClosures() {
	e := w.eng
	w.getFn = func(tx *stm.Tx) { w.out, w.ok = e.kv.Get(tx, w.key) }
	w.putFn = func(tx *stm.Tx) { w.ok = e.kv.Put(tx, w.key, w.val, w.th) }
	w.delFn = func(tx *stm.Tx) { w.ok = e.kv.Delete(tx, w.key) }
	w.resvFn = func(tx *stm.Tx) {
		// STAMP's makeReservation adds the customer in the same
		// transaction; RESV mirrors that so a fresh customer can reserve.
		e.res.AddCustomer(tx, w.th, w.cust)
		w.price, w.ok = e.res.ReservePriced(tx, w.th, w.cust, int(w.kind), w.resID)
	}
	w.billFn = func(tx *stm.Tx) { w.out, w.ok = e.res.QueryCustomerBill(tx, w.cust) }
	w.cancelFn = func(tx *stm.Tx) { w.ok = e.res.DeleteCustomer(tx, w.cust) }
	w.addCustFn = func(tx *stm.Tx) { w.ok = e.res.AddCustomer(tx, w.th, w.cust) }
	w.addResFn = func(tx *stm.Tx) { e.res.AddResource(tx, w.th, int(w.kind), w.resID, w.num, w.price) }
	w.delResFn = func(tx *stm.Tx) { w.ok = e.res.DeleteResource(tx, int(w.kind), w.resID, w.num) }
	w.qpriceFn = func(tx *stm.Tx) { w.out, w.ok = e.res.QueryPrice(tx, int(w.kind), w.resID) }
}

// runRes executes a reservation transaction body: cached and
// allocation-free normally, recorded via vacation.RunTx when the engine
// is capturing serializability histories.
func (w *Worker) runRes(fn func(tx *stm.Tx)) {
	if w.txShard != nil {
		vacation.RunTx(w.eng.res, w.th, w.txShard, fn)
		return
	}
	w.eng.resTM.RunCached(w.th, fn)
}

// Exec runs one decoded request on the worker and appends the encoded
// response to out. The caller must hold w.mu. Allocation-free for the
// KV/set commands and the cached reservation path.
func (w *Worker) Exec(req *Request, out []byte) []byte {
	e := w.eng
	switch req.Op {
	case CmdGet:
		w.key = req.A
		e.kvTM.RunCached(w.th, w.getFn)
		if w.ok {
			return appendOKVal(out, w.out)
		}
		return appendNF(out)
	case CmdPut:
		if req.B == 0 {
			return appendErr(out, errZeroVal)
		}
		w.key, w.val = req.A, req.B
		e.kvTM.RunCached(w.th, w.putFn)
		return appendBool(out, w.ok)
	case CmdDel:
		w.key = req.A
		e.kvTM.RunCached(w.th, w.delFn)
		return appendBool(out, w.ok)
	case CmdSAdd:
		return appendBool(out, e.set.Insert(w.th, req.A))
	case CmdSRem:
		return appendBool(out, e.set.Delete(w.th, req.A))
	case CmdSHas:
		return appendBool(out, e.set.Contains(w.th, req.A))
	case CmdResv:
		if req.B >= vacation.NumKinds {
			return appendErr(out, errBadKind)
		}
		w.cust, w.kind, w.resID = req.A, req.B, req.C
		w.runRes(w.resvFn)
		if w.ok {
			return appendOKVal(out, w.price)
		}
		return appendBool(out, false)
	case CmdBill:
		w.cust = req.A
		w.runRes(w.billFn)
		if w.ok {
			return appendOKVal(out, w.out)
		}
		return appendNF(out)
	case CmdCancel:
		w.cust = req.A
		w.runRes(w.cancelFn)
		return appendBool(out, w.ok)
	case CmdAddCust:
		w.cust = req.A
		w.runRes(w.addCustFn)
		return appendBool(out, w.ok)
	case CmdAddRes:
		if req.A >= vacation.NumKinds {
			return appendErr(out, errBadKind)
		}
		w.kind, w.resID, w.num, w.price = req.A, req.B, req.C, req.D
		w.runRes(w.addResFn)
		return appendOK(out)
	case CmdDelRes:
		if req.A >= vacation.NumKinds {
			return appendErr(out, errBadKind)
		}
		w.kind, w.resID, w.num = req.A, req.B, req.C
		w.runRes(w.delResFn)
		return appendBool(out, w.ok)
	case CmdQPrice:
		if req.A >= vacation.NumKinds {
			return appendErr(out, errBadKind)
		}
		w.kind, w.resID = req.A, req.B
		w.runRes(w.qpriceFn)
		if w.ok {
			return appendOKVal(out, w.out)
		}
		return appendNF(out)
	case CmdPing:
		return appendPong(out)
	}
	return appendErr(out, errUnknown)
}

// CheckTables verifies the reservation engine's conservation invariants.
// Quiescent only (no traffic in flight).
func (e *Engine) CheckTables() (bool, string) {
	return e.res.CheckTables(e.mem.Thread(0))
}

// PoolStats returns the KV and set reclamation pool statistics (zero
// values when reclamation is off). Quiescent only.
func (e *Engine) PoolStats() (kv, set reclaim.Stats) {
	if e.kvPool != nil {
		kv = e.kvPool.Stats()
	}
	if e.setPool != nil {
		set = e.setPool.Stats()
	}
	return kv, set
}
