package main

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cachemodel"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/reclaim"
	"repro/internal/serve"
	"repro/internal/skiplist"
	"repro/internal/stm"
	"repro/internal/telemetry"
	"repro/internal/txmap"
	"repro/internal/vacation"
	"repro/internal/vtags"
)

// nsPer times body(n) five times and returns the median cost of one of its
// n iterations in host ns.
func nsPer(n int, body func(n int)) float64 {
	reps := make([]float64, 5)
	for r := range reps {
		t0 := time.Now()
		body(n)
		reps[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(reps)
}

// clockNS is the cost of one time.Now, which per-request timing subtracts.
func clockNS(iters int) float64 {
	var sink time.Time
	ns := nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			sink = time.Now()
		}
	})
	_ = sink
	return ns
}

// replica is the storage side of a serve.Engine rebuilt from the layers'
// public constructors in the engine's order — a vtags.Memory, one TM per
// plane, txmap, VAS skiplist, vacation.Manager, optional reclamation pools —
// so that a request stream can be walked through the same functions on one
// goroutine, raw for timing or through the counting wrapper for op counts.
type replica struct {
	raw *vtags.Memory
	cm  *countingMemory // nil on a raw replica
	th  core.Thread

	kvTM, resTM *stm.TM
	kv          *txmap.Map
	set         *skiplist.List
	res         *vacation.Manager

	// Argument and result slots the preallocated transaction bodies read,
	// as serve.Worker does, so executing them allocates nothing.
	key, val, out     uint64
	ok                bool
	cust, kind, resID uint64

	getFn, putFn, delFn      func(*stm.Tx)
	resvFn, billFn, cancelFn func(*stm.Tx)
}

func newReplica(cfg serve.EngineConfig, tagged, counting bool) *replica {
	raw := vtags.New(1<<30, cfg.Workers)
	var mem core.Memory = raw
	r := &replica{raw: raw}
	if counting {
		r.cm = newCountingMemory(raw)
		mem = r.cm
	}
	newTM := stm.NewNOrec
	if tagged {
		newTM = stm.NewTagged
	}
	r.kvTM, r.resTM = newTM(mem), newTM(mem)
	r.kvTM.Prepare(cfg.Workers)
	r.resTM.Prepare(cfg.Workers)
	var dom *reclaim.Domain
	if cfg.Reclaim {
		dom = reclaim.NewDomainFor(raw)
		raw.SetReclaim(dom)
		r.kvTM.SetReclaim(dom)
		r.resTM.SetReclaim(dom)
	}
	r.kv = txmap.New(mem)
	r.set = skiplist.NewVAS(mem)
	if cfg.Reclaim {
		r.kv.SetReclaim(reclaim.NewPool(dom, txmap.NodeWords, cfg.ReclaimPolicy))
		r.set.SetReclaim(reclaim.NewPool(dom, skiplist.NodeWords, cfg.ReclaimPolicy))
	}
	r.res = vacation.NewManager(mem, r.resTM)
	r.th = mem.Thread(0)
	vacation.Populate(r.res, r.th, vacation.Params{Relations: cfg.Relations}, cfg.Seed)

	r.getFn = func(tx *stm.Tx) { r.out, r.ok = r.kv.Get(tx, r.key) }
	r.putFn = func(tx *stm.Tx) { r.ok = r.kv.Put(tx, r.key, r.val, r.th) }
	r.delFn = func(tx *stm.Tx) { r.ok = r.kv.Delete(tx, r.key) }
	r.resvFn = func(tx *stm.Tx) {
		r.res.AddCustomer(tx, r.th, r.cust)
		r.out, r.ok = r.res.ReservePriced(tx, r.th, r.cust, int(r.kind), r.resID)
	}
	r.billFn = func(tx *stm.Tx) { r.out, r.ok = r.res.QueryCustomerBill(tx, r.cust) }
	r.cancelFn = func(tx *stm.Tx) { r.ok = r.res.DeleteCustomer(tx, r.cust) }
	return r
}

// exec is serve.Worker.Exec without the response encoding: the same calls
// into stm, txmap, skiplist and vacation for the commands the workloads use.
func (r *replica) exec(req *serve.Request) {
	switch req.Op {
	case serve.CmdGet:
		r.key = req.A
		r.kvTM.RunCached(r.th, r.getFn)
	case serve.CmdPut:
		r.key, r.val = req.A, req.B
		r.kvTM.RunCached(r.th, r.putFn)
	case serve.CmdDel:
		r.key = req.A
		r.kvTM.RunCached(r.th, r.delFn)
	case serve.CmdSAdd:
		r.ok = r.set.Insert(r.th, req.A)
	case serve.CmdSRem:
		r.ok = r.set.Delete(r.th, req.A)
	case serve.CmdSHas:
		r.ok = r.set.Contains(r.th, req.A)
	case serve.CmdResv:
		r.cust, r.kind, r.resID = req.A, req.B, req.C
		r.resTM.RunCached(r.th, r.resvFn)
	case serve.CmdBill:
		r.cust = req.A
		r.resTM.RunCached(r.th, r.billFn)
	case serve.CmdCancel:
		r.cust = req.A
		r.resTM.RunCached(r.th, r.cancelFn)
	}
}

// classOf indexes per-command tallies.
func classOf(op uint8) int { return int(op - serve.CmdGet) }

const numClasses = int(serve.CmdPing-serve.CmdGet) + 1

// replayTally is what one walk of a request stream through a replica cost.
type replayTally struct {
	n  [numClasses]uint64
	ns [numClasses]int64 // exec time per command class, one clock read included

	// Counting replicas only.
	counts   opCounts // primitives issued by the measured stream
	getLoads uint64   // the loads among them that GETs issued
}

func (t *replayTally) execNS() (ns int64) {
	for _, c := range t.ns {
		ns += c
	}
	return ns
}

// meanNS is the mean exec time of one command class with the clock read
// inside the timed interval taken out.
func (t *replayTally) meanNS(op uint8, clock float64) float64 {
	c := classOf(op)
	if t.n[c] == 0 {
		return 0
	}
	return float64(t.ns[c])/float64(t.n[c]) - clock
}

// replay prefills the replica, then walks lines — the wire form of the
// generated stream — through serve.ParseRequest and the engine-equivalent
// op, in engine order. On a raw replica each exec is timed; on a counting
// replica the primitives it issued are tallied instead. With a track the
// first spans' worth of requests also leave request ⊃ {parse, exec} spans.
func replay(r *replica, pre []serve.Request, lines [][]byte, tc *tracer, tr *track) replayTally {
	for i := range pre {
		r.exec(&pre[i])
	}
	var t replayTally
	var ct *countingThread
	if r.cm != nil {
		ct = r.cm.threads[0]
		ct.n = opCounts{} // count the measured stream, not the prefill
	}
	for i, line := range lines {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		req, err := serve.ParseRequest(line)
		if err != nil {
			panic("benchmark: generated request does not parse: " + err.Error())
		}
		c := classOf(req.Op)
		if ct != nil {
			loads := ct.n.loads
			r.exec(&req)
			if req.Op == serve.CmdGet {
				t.getLoads += ct.n.loads - loads
			}
			t.n[c]++
			continue
		}
		t1 := time.Now()
		r.exec(&req)
		t2 := time.Now()
		t.n[c]++
		t.ns[c] += int64(t2.Sub(t1))
		if tr != nil {
			id := uint64(i)
			tr.add("request", tc.since(t0), tc.since(t2), id)
			tr.add("parse", tc.since(t0), tc.since(t1), id)
			tr.add("exec", tc.since(t1), tc.since(t2), id)
		}
	}
	if ct != nil {
		t.counts = ct.n
	}
	return t
}

// encodeStream renders reqs as wire lines and returns them with the mean
// host ns serve.AppendRequest took per request.
func encodeStream(reqs []serve.Request) (lines [][]byte, appendNS float64) {
	var buf []byte
	offs := make([]int, len(reqs)+1)
	appendNS = nsPer(len(reqs), func(n int) {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			buf = serve.AppendRequest(buf, &reqs[i])
			offs[i+1] = len(buf)
		}
	})
	lines = make([][]byte, len(reqs))
	for i := range reqs {
		lines[i] = buf[offs[i]:offs[i+1]]
	}
	return lines, appendNS
}

// parseRequestNS is the mean host ns of serve.ParseRequest over the stream.
func parseRequestNS(lines [][]byte) float64 {
	var sink serve.Request
	ns := nsPer(len(lines), func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = serve.ParseRequest(lines[i])
		}
	})
	_ = sink
	return ns
}

// parseResponseNS is the mean host ns of serve.ParseResponse over the
// replies the stream's mix draws: a value for GET, a price for RESV, a bare
// verdict for the rest.
func parseResponseNS(reqs []serve.Request) float64 {
	lines := make([][]byte, len(reqs))
	for i, req := range reqs {
		switch req.Op {
		case serve.CmdGet:
			lines[i] = append(strconv.AppendUint([]byte("OK "), req.A<<valShift|1, 10), '\n')
		case serve.CmdResv:
			lines[i] = []byte("OK 70\n")
		case serve.CmdBill:
			lines[i] = []byte("NF\n")
		case serve.CmdPing:
			lines[i] = []byte("PONG\n")
		default:
			lines[i] = []byte("T\n")
		}
	}
	var sink serve.Response
	ns := nsPer(len(lines), func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = serve.ParseResponse(lines[i])
		}
	})
	_ = sink
	return ns
}

// unitIters is how many iterations a unit-cost loop times at full scale.
const unitIters = 200_000

// stmUnitCosts times the STM alone on a benchmark-owned vtags.Memory: an
// empty transaction, the marginal cost of one tx.Read, and a one-write
// commit over an empty transaction.
func stmUnitCosts(tagged bool, iters int) (emptyNS, readNS, writeCommitNS float64) {
	mem := vtags.New(64<<20, 1)
	tm := stm.NewNOrec(mem)
	if tagged {
		tm = stm.NewTagged(mem)
	}
	tm.Prepare(1)
	th := mem.Thread(0)
	const reads = 16
	var addrs [reads]core.Addr
	for i := range addrs {
		addrs[i] = mem.Alloc(1) // line-aligned: 16 distinct lines
		th.Store(addrs[i], uint64(i))
	}
	var sink uint64
	empty := func(*stm.Tx) {}
	read := func(tx *stm.Tx) {
		for _, a := range addrs {
			sink += tx.Read(a)
		}
	}
	write := func(tx *stm.Tx) { tx.Write(addrs[0], sink) }
	run := func(fn func(*stm.Tx)) float64 {
		return nsPer(iters, func(n int) {
			for i := 0; i < n; i++ {
				tm.RunCached(th, fn)
			}
		})
	}
	emptyNS = run(empty)
	readNS = (run(read) - emptyNS) / reads
	writeCommitNS = run(write) - emptyNS
	return emptyNS, readNS, writeCommitNS
}

// vtagsUnit is the host cost of each vtags primitive in a tight loop on one
// thread, every line already touched.
type vtagsUnit struct{ load, store, addTag, validate, vas float64 }

func vtagsUnitCosts(iters int) vtagsUnit {
	mem := vtags.New(64<<20, 1)
	th := mem.Thread(0)
	const lines = 1024
	var addrs [lines]core.Addr
	for i := range addrs {
		addrs[i] = mem.Alloc(1)
		th.Store(addrs[i], 1)
	}
	var u vtagsUnit
	var sink uint64
	u.load = nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			sink += th.Load(addrs[i%lines])
		}
	})
	u.store = nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			th.Store(addrs[i%lines], uint64(i))
		}
	})
	// A tag set of 8 per ClearTagSet, the size a txmap lookup holds.
	const window = 8
	u.addTag = nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			th.AddTag(addrs[i%lines], 8)
			if i%window == window-1 {
				th.ClearTagSet()
			}
		}
	})
	for i := 0; i < window; i++ {
		th.AddTag(addrs[i], 8)
	}
	ok := true
	u.validate = nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			ok = th.Validate() && ok
		}
	})
	th.ClearTagSet()
	tagVAS := nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			a := addrs[i%lines]
			th.AddTag(a, 8)
			ok = th.VAS(a, uint64(i)) && ok
			th.ClearTagSet()
		}
	})
	tagOnly := nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			th.AddTag(addrs[i%lines], 8)
			th.ClearTagSet()
		}
	})
	u.vas = tagVAS - tagOnly
	if !ok || sink == 0 {
		panic("benchmark: uncontended vtags primitive failed")
	}
	return u
}

// telemetryUnitCosts times the two calls the served hot path makes per
// request: Stream.Tick and Histogram.Observe.
func telemetryUnitCosts(iters int) (tickNS, observeNS float64) {
	s := telemetry.NewStream(1, uint64(100*time.Millisecond), 120)
	var clock uint64
	tickNS = nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			clock += 3000
			s.Tick(0, clock, 2500+uint64(i&1023), 0)
		}
	})
	var h telemetry.Histogram
	observeNS = nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(2500 + uint64(i&1023))
		}
	})
	return tickNS, observeNS
}

// keyDrawNS is the host cost of one draw from the workload's key
// distribution.
func keyDrawNS(newDraw func(*rand.Rand) func() uint64, iters int) float64 {
	draw := newDraw(rand.New(rand.NewSource(1)))
	var sink uint64
	ns := nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			sink += draw()
		}
	})
	_ = sink
	return ns
}

// machineUnit is the simulator's host cost for its cheapest operations, on
// one simulated core with clock synchronisation off.
type machineUnit struct{ loadL1, tagValidate, vas float64 }

func machineUnitCosts(iters int) machineUnit {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 16 << 20
	cfg.SyncWindowCycles = 0 // single goroutine
	m := machine.New(cfg)
	th := m.Thread(0)
	a := m.Alloc(1)
	th.Store(a, 1)
	var u machineUnit
	var sink uint64
	ok := true
	u.loadL1 = nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			sink += th.Load(a)
		}
	})
	u.tagValidate = nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			th.AddTag(a, 8)
			ok = th.Validate() && ok
			th.ClearTagSet()
		}
	})
	u.vas = nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			th.AddTag(a, 8)
			v := th.Load(a)
			ok = th.VAS(a, v+1) && ok
			th.ClearTagSet()
		}
	})
	if !ok || sink == 0 {
		panic("benchmark: uncontended machine primitive failed")
	}
	return u
}

// cacheAccessNS is the host cost of one cachemodel lookup that hits, on an
// L1-shaped model holding half its capacity.
func cacheAccessNS(iters int) float64 {
	c := cachemodel.New(32<<10, 8)
	const resident = 256
	for l := 0; l < resident; l++ {
		c.Insert(core.Line(l))
	}
	hits := 0
	ns := nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			if c.Lookup(core.Line(i % resident)) {
				hits++
			}
		}
	})
	if hits == 0 {
		panic("benchmark: cachemodel lost its resident lines")
	}
	return ns
}
