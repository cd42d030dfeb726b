package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/reclaim"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Load shape of every served workload: nproc is 2, so the in-process server
// gets 2 engine workers and the generator exactly 2 connections, one
// goroutine each.
//
// The measured segments run on one scheduler thread (servedProcs). With two,
// this 2-vCPU sandbox is bistable: the same binary serves kv-pipelined at
// 250k-600k req/s from run to run, flipping between a serial regime (one core
// busy, service time equal to the single-thread replay) and a contended one
// (two cores busy, service time tripled by cache-line transfers whose cost
// follows the hypervisor's vCPU placement). On one thread the result repeats
// within a few percent and is the CPU cost of the request path, which is what
// the ladder decomposes. The contended regime is still measured, ungated, by
// the traced run's parallel pass (serve.parallel_*); scaling proper is the
// simulated workloads' job.
const (
	servedWorkers = 2
	servedConns   = 2
	servedProcs   = 1
	prefillDepth  = 32
	segmentGuard  = 120 * time.Second // a segment that stalls this long fails instead of hanging
)

var (
	kvMix = []mixEntry{{serve.CmdGet, 80}, {serve.CmdPut, 10}, {serve.CmdDel, 10}}
	// mixed-write: half writes, set plane, multi-table reservations.
	mixedMix = []mixEntry{
		{serve.CmdGet, 40}, {serve.CmdPut, 20}, {serve.CmdDel, 10},
		{serve.CmdSHas, 8}, {serve.CmdSAdd, 6}, {serve.CmdSRem, 6},
		{serve.CmdResv, 7}, {serve.CmdBill, 2}, {serve.CmdCancel, 1},
	}
	pingMix = []mixEntry{{serve.CmdPing, 100}}
)

// servedSpec is one served workload's fixed shape.
type servedSpec struct {
	engine  serve.EngineConfig
	dist    workload.KeyDist
	mix     []mixEntry
	depth   int // requests in flight per connection
	segReqs int // requests per measured segment, over both connections
}

const (
	servedKeyRange  = 65536
	servedRelations = 1024
)

func kvEngine() serve.EngineConfig {
	return serve.EngineConfig{Workers: servedWorkers, Tagged: true, Relations: servedRelations}
}

func mixedEngine() serve.EngineConfig {
	e := kvEngine()
	e.Reclaim, e.ReclaimPolicy = true, reclaim.PolicyImmediate
	return e
}

// client is one closed-loop connection: it keeps depth requests in flight,
// checks every reply, and times each batch from issue to last reply.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
	lat  []int64 // one sample per batch this segment, ns

	sent, recv, failed uint64 // cumulative
	err                error  // first transport error; the connection is dead after it
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// run sends reqs in batches of depth and reads each batch's replies before
// sending the next. A dead connection fails every request still owed.
// With tr set it also records the batch's client-side spans.
func (c *client) run(reqs []serve.Request, depth int, check func(*serve.Request, serve.Response) bool, tc *tracer, tr *track, connID uint64) {
	c.lat = c.lat[:0]
	_ = c.conn.SetDeadline(time.Now().Add(segmentGuard)) // error would resurface on Write
	last := time.Now()
	var seq uint64
	for off := 0; off < len(reqs); off += depth {
		batch := reqs[off:min(off+depth, len(reqs))]
		if c.err != nil {
			c.failed += uint64(len(batch))
			continue
		}
		c.buf = c.buf[:0]
		for i := range batch {
			c.buf = serve.AppendRequest(c.buf, &batch[i])
		}
		var tEnc, tWrite, tFirst time.Time
		if tr != nil {
			tEnc = time.Now()
		}
		if _, err := c.conn.Write(c.buf); err != nil {
			c.err = fmt.Errorf("write: %w", err)
			c.failed += uint64(len(batch))
			continue
		}
		c.sent += uint64(len(batch))
		if tr != nil {
			tWrite = time.Now()
		}
		for i := range batch {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				c.err = fmt.Errorf("read: %w", err)
				c.failed += uint64(len(batch) - i)
				break
			}
			if tr != nil && i == 0 {
				tFirst = time.Now()
			}
			c.recv++
			resp, err := serve.ParseResponse(line)
			if err != nil || !check(&batch[i], resp) {
				c.failed++
			}
		}
		now := time.Now()
		c.lat = append(c.lat, int64(now.Sub(last)))
		if tr != nil && c.err == nil {
			id := connID<<32 | seq
			s, e := tc.since(last), tc.since(now)
			tr.add("batch", s, e, id)
			tr.add("encode", s, tc.since(tEnc), id)
			tr.add("write", tc.since(tEnc), tc.since(tWrite), id)
			tr.add("wait", tc.since(tWrite), tc.since(tFirst), id)
			tr.add("read+parse", tc.since(tFirst), e, id)
		}
		seq++
		last = now
	}
}

// served is a running server with its two connections.
type served struct {
	spec    servedSpec
	seed    int64
	traffic *traffic
	srv     *serve.Server
	clients []*client
	reqs    [][]serve.Request
	tracks  []*track // per connection, traced runs only
	tc      *tracer
	lat     []int64 // merged latency samples, reused across segments
	procs   int     // GOMAXPROCS to restore on close
	closed  bool

	// Server-side counters at the end of set-up, for the traced run's diffs.
	base serverCounters
}

type serverCounters struct {
	stats   serve.EngineStats
	count   uint64
	sum     uint64
	buckets [telemetry.NumBuckets]uint64
}

func (s *served) counters() serverCounters {
	c := serverCounters{stats: s.srv.Engine().Stats()}
	c.count, c.sum = s.srv.Stream().CumulativeLatency(&c.buckets)
	return c
}

// setupServed builds the engine (vacation populate included), starts the
// server on loopback, connects, prefills the even keys over the wire and
// runs the warm-up segment. scale divides the segment size, the key range
// and the reservation tables.
func setupServed(spec servedSpec, seed int64, scale int, tc *tracer) (instance, error) {
	spec.segReqs = max(spec.segReqs/scale, 4*spec.depth*servedConns)
	spec.engine.Seed = seed
	spec.engine.Relations = max(servedRelations/scale, 64)
	keyRange := uint64(max(servedKeyRange/scale, 1024))
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", Engine: spec.engine})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	s := &served{
		spec: spec, seed: seed, srv: srv, tc: tc, procs: runtime.GOMAXPROCS(servedProcs),
		traffic: newTraffic(keyRange, uint64(spec.engine.Relations), spec.dist, spec.mix),
	}
	for c := 0; c < servedConns; c++ {
		cl, err := dial(srv.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
		s.reqs = append(s.reqs, make([]serve.Request, spec.segReqs/servedConns))
		if tc != nil {
			s.tracks = append(s.tracks, tc.track(fmt.Sprintf("conn%d", c), 1<<16))
		} else {
			s.tracks = append(s.tracks, nil)
		}
	}
	pre := s.traffic.prefillRequests(servedConns)
	s.drive(func(c int) []serve.Request { return pre[c] }, prefillDepth, checkInserted, false)
	// Warm-up: a quarter segment of the workload's own traffic.
	for c := range s.reqs {
		s.traffic.fill(s.reqs[c][:len(s.reqs[c])/4], subSeed(seed, -1, int64(c)))
	}
	s.drive(func(c int) []serve.Request { return s.reqs[c][:len(s.reqs[c])/4] }, spec.depth, checkReply, false)
	if failed := s.failed(); failed != 0 {
		err := fmt.Errorf("%d requests failed during prefill and warm-up (first error: %v)", failed, s.firstErr())
		s.close()
		return nil, err
	}
	s.base = s.counters()
	return s, nil
}

// drive runs one closed-loop pass on every connection at once and returns
// its host duration.
func (s *served) drive(reqs func(c int) []serve.Request, depth int, check func(*serve.Request, serve.Response) bool, traced bool) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for c, cl := range s.clients {
		var tr *track
		if traced {
			tr = s.tracks[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(reqs(c), depth, check, s.tc, tr, uint64(c))
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func (s *served) failed() (n uint64) {
	for _, cl := range s.clients {
		n += cl.failed
	}
	return n
}

func (s *served) firstErr() error {
	for _, cl := range s.clients {
		if cl.err != nil {
			return cl.err
		}
	}
	return nil
}

// segment generates segment i's requests (outside the timed part: the
// server only ever sees generated requests), then drives them.
func (s *served) segment(i int, traced bool) segment {
	for c := range s.clients {
		s.traffic.fill(s.reqs[c], subSeed(s.seed, int64(i), int64(c)))
	}
	return s.timed(func(c int) []serve.Request { return s.reqs[c] }, s.spec.depth, traced)
}

func (s *served) timed(reqs func(c int) []serve.Request, depth int, traced bool) segment {
	failed0 := s.failed()
	cpu0 := cpuTime()
	host := s.drive(reqs, depth, checkReply, traced)
	cpu := cpuTime() - cpu0
	var ops uint64
	lat := s.lat[:0]
	for c, cl := range s.clients {
		ops += uint64(len(reqs(c)))
		lat = append(lat, cl.lat...)
	}
	slices.Sort(lat)
	s.lat = lat
	return segment{
		ops: ops, failed: s.failed() - failed0, host: host, cpu: cpu,
		rate:  float64(ops) / host.Seconds(),
		p50us: percentile(lat, 0.50) / 1e3,
		p99us: percentile(lat, 0.99) / 1e3,
	}
}

// finish shuts the server down, then checks the per-connection accounting
// and, the engine now quiescent, the reservation tables' conservation
// invariants. A failed invariant is returned as an error: it taints every
// request.
func (s *served) finish() error {
	err := s.close()
	for c, cl := range s.clients {
		if cl.err != nil {
			err = fmt.Errorf("conn %d died: %w", c, cl.err)
		} else if cl.sent != cl.recv {
			err = fmt.Errorf("conn %d: sent %d requests, read %d replies", c, cl.sent, cl.recv)
		}
	}
	if ok, detail := s.srv.Engine().CheckTables(); !ok {
		err = fmt.Errorf("reservation tables: %s", detail)
	}
	return err
}

func (s *served) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	runtime.GOMAXPROCS(s.procs)
	for _, cl := range s.clients {
		cl.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
