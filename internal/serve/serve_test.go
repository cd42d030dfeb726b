package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/linearizability"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Engine.Workers == 0 {
		cfg.Engine.Workers = 4
	}
	if cfg.Engine.MemBytes == 0 {
		cfg.Engine.MemBytes = 64 << 20
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return srv
}

// testClient is one unpipelined request/response wire client.
type testClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dialClient(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return &testClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (c *testClient) close() { c.conn.Close() }

func (c *testClient) do(req Request) Response {
	c.buf = AppendRequest(c.buf[:0], &req)
	if _, err := c.conn.Write(c.buf); err != nil {
		c.t.Fatalf("write: %v", err)
	}
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	resp, err := ParseResponse(line)
	if err != nil {
		c.t.Fatalf("bad response %q: %v", line, err)
	}
	return resp
}

func shutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestServeRoundTrip(t *testing.T) {
	srv := startServer(t, Config{Engine: EngineConfig{Workers: 2, Tagged: true, Relations: 8}})
	defer shutdown(t, srv)
	c := dialClient(t, srv.Addr().String())
	defer c.close()

	if r := c.do(Request{Op: CmdPing}); r.Kind != RespPong {
		t.Fatalf("PING = %+v", r)
	}
	if r := c.do(Request{Op: CmdGet, A: 5}); r.Kind != RespNF {
		t.Fatalf("GET missing = %+v", r)
	}
	if r := c.do(Request{Op: CmdPut, A: 5, B: 70}); r.Kind != RespTrue {
		t.Fatalf("PUT new = %+v", r)
	}
	if r := c.do(Request{Op: CmdPut, A: 5, B: 71}); r.Kind != RespFalse {
		t.Fatalf("PUT existing = %+v", r)
	}
	if r := c.do(Request{Op: CmdGet, A: 5}); r.Kind != RespOK || r.Val != 71 {
		t.Fatalf("GET = %+v, want OK 71", r)
	}
	if r := c.do(Request{Op: CmdDel, A: 5}); r.Kind != RespTrue {
		t.Fatalf("DEL = %+v", r)
	}
	if r := c.do(Request{Op: CmdSAdd, A: 9}); r.Kind != RespTrue {
		t.Fatalf("SADD = %+v", r)
	}
	if r := c.do(Request{Op: CmdSHas, A: 9}); r.Kind != RespTrue {
		t.Fatalf("SHAS = %+v", r)
	}
	if r := c.do(Request{Op: CmdSRem, A: 9}); r.Kind != RespTrue {
		t.Fatalf("SREM = %+v", r)
	}
	// Reservation plane: populate created resources 1..8 with capacity.
	if r := c.do(Request{Op: CmdQPrice, A: 0, B: 3}); r.Kind != RespOK || !r.HasVal {
		t.Fatalf("QPRICE = %+v", r)
	}
	r := c.do(Request{Op: CmdResv, A: 1, B: 0, C: 3})
	if r.Kind != RespOK || !r.HasVal {
		t.Fatalf("RESV = %+v", r)
	}
	price := r.Val
	if r := c.do(Request{Op: CmdBill, A: 1}); r.Kind != RespOK || r.Val != price {
		t.Fatalf("BILL = %+v, want OK %d", r, price)
	}
	if r := c.do(Request{Op: CmdCancel, A: 1}); r.Kind != RespTrue {
		t.Fatalf("CANCEL = %+v", r)
	}
	if r := c.do(Request{Op: CmdBill, A: 1}); r.Kind != RespNF {
		t.Fatalf("BILL after cancel = %+v", r)
	}
	// Malformed request answers ERR and keeps the connection.
	if _, err := c.conn.Write([]byte("BOGUS 1\n")); err != nil {
		t.Fatal(err)
	}
	line, err := c.br.ReadBytes('\n')
	if err != nil || line[0] != 'E' {
		t.Fatalf("bogus request answered %q (%v)", line, err)
	}
	if r := c.do(Request{Op: CmdPing}); r.Kind != RespPong {
		t.Fatalf("PING after ERR = %+v", r)
	}
}

// TestServeE2EWireHistory is the end-to-end satellite: concurrent clients
// drive mixed KV + set + reservation traffic over real TCP, recording KV
// and set operations at the wire (invocation when the request is written,
// response when the reply is read) and reservation transactions
// server-side as history.OpTx footprints. The served history must be
// linearizable at the wire (Wing-Gong over the KV and set models) and the
// reservation history strictly serializable with intact table invariants.
// The KV keys come from two trees of the KV plane and the RESV, BILL and
// CANCEL customers from one customer tree, and a sampler checks that those
// trees held enough keys to rebalance while the clients ran.
func TestServeE2EWireHistory(t *testing.T) {
	const (
		clients    = 6
		opsPerConn = 400
		workers    = 4
		kvKeys     = 24
		customers  = 8
		relations  = 64
		deepTree   = 8 // keys one KV tree must hold at some sample
		deepCust   = 4 // customers their tree must hold at some sample
	)
	recTx := history.NewRecorder(workers+1, 4096)
	srv := startServer(t, Config{
		Engine: EngineConfig{
			Workers:   workers,
			Tagged:    true,
			Relations: relations,
			Seed:      1,
			RecordTx:  recTx,
		},
		StreamEvery: 5 * time.Millisecond,
	})
	recWire := history.NewRecorder(clients, clients*opsPerConn)
	eng := srv.Engine()
	keys, trees := collidingKeys(eng.kv, kvKeys, 1, 2)
	custs, custTree := collidingKeys(eng.res.Customers(), customers, 1)

	// Sample the trees' sizes through worker 0 while the clients run;
	// peak is the most keys either KV tree held at a sample, custPeak the
	// most customers their tree held.
	stopSampling := make(chan struct{})
	peakCh := make(chan [2]int)
	go func() {
		w, peak, custPeak := eng.workers[0], 0, 0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			for _, i := range trees {
				peak = max(peak, w.treeLen(eng.kvTM, eng.kv, i))
			}
			custPeak = max(custPeak, w.treeLen(eng.resTM, eng.res.Customers(), custTree[0]))
			select {
			case <-stopSampling:
				peakCh <- [2]int{peak, custPeak}
				return
			case <-tick.C:
			}
		}
	}()

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dialClient(t, srv.Addr().String())
			defer c.close()
			sh := recWire.Shard(cl)
			rng := rand.New(rand.NewSource(int64(cl)*997 + 13))
			for i := 0; i < opsPerConn; i++ {
				k := keys[rng.Intn(kvKeys)]
				switch draw := rng.Intn(100); {
				case draw < 20: // PUT
					v := uint64(rng.Intn(999)) + 1
					idx := sh.Begin(CmdPut, k, v)
					r := c.do(Request{Op: CmdPut, A: k, B: v})
					sh.End(idx, r.Kind == RespTrue, 0)
				case draw < 30: // DEL
					idx := sh.Begin(CmdDel, k, 0)
					r := c.do(Request{Op: CmdDel, A: k})
					sh.End(idx, r.Kind == RespTrue, 0)
				case draw < 50: // GET
					idx := sh.Begin(CmdGet, k, 0)
					r := c.do(Request{Op: CmdGet, A: k})
					sh.End(idx, r.Kind == RespOK, r.Val)
				case draw < 62: // SADD
					idx := sh.Begin(CmdSAdd, k, 0)
					r := c.do(Request{Op: CmdSAdd, A: k})
					sh.End(idx, r.Kind == RespTrue, 0)
				case draw < 70: // SREM
					idx := sh.Begin(CmdSRem, k, 0)
					r := c.do(Request{Op: CmdSRem, A: k})
					sh.End(idx, r.Kind == RespTrue, 0)
				case draw < 80: // SHAS
					idx := sh.Begin(CmdSHas, k, 0)
					r := c.do(Request{Op: CmdSHas, A: k})
					sh.End(idx, r.Kind == RespTrue, 0)
				case draw < 90: // RESV (recorded server-side as OpTx)
					cust := custs[rng.Intn(customers)]
					kind := uint64(rng.Intn(3))
					id := uint64(rng.Intn(relations)) + 1
					c.do(Request{Op: CmdResv, A: cust, B: kind, C: id})
				case draw < 95: // BILL
					c.do(Request{Op: CmdBill, A: custs[rng.Intn(customers)]})
				default: // CANCEL
					c.do(Request{Op: CmdCancel, A: custs[rng.Intn(customers)]})
				}
			}
		}(cl)
	}
	wg.Wait()
	close(stopSampling)
	peaks := <-peakCh
	shutdown(t, srv)
	if peaks[0] < deepTree {
		t.Fatalf("vacuous e2e: the KV keys' trees held at most %d keys at any sample, want >= %d so that their trees rebalance", peaks[0], deepTree)
	}
	if peaks[1] < deepCust {
		t.Fatalf("vacuous e2e: the customers' tree held at most %d customers at any sample, want >= %d", peaks[1], deepCust)
	}
	t.Logf("peak tree sizes: KV %d, customers %d", peaks[0], peaks[1])

	// Split the wire history into its two planes and check each against
	// its model, partitioned by key.
	var kvEvents, setEvents []history.Event
	for _, e := range recWire.Events() {
		switch e.Op {
		case CmdGet, CmdPut, CmdDel:
			kvEvents = append(kvEvents, e)
		case CmdSAdd, CmdSRem, CmdSHas:
			setEvents = append(setEvents, e)
		}
	}
	if len(kvEvents) == 0 || len(setEvents) == 0 {
		t.Fatal("vacuous e2e: a plane recorded no events")
	}
	if out := linearizability.CheckPartitioned(KVWireModel(), kvEvents); !out.OK {
		t.Fatalf("served KV history not linearizable:\n%s", out.Explain())
	}
	if out := linearizability.CheckPartitioned(SetWireModel(), setEvents); !out.OK {
		t.Fatalf("served set history not linearizable:\n%s", out.Explain())
	}

	// Reservation plane: strict serializability of the recorded OpTx
	// footprints (populate + init included) and table conservation.
	txCount := 0
	for _, e := range recTx.Events() {
		if e.Op == history.OpTx {
			txCount++
		}
	}
	if txCount <= relations*4 {
		t.Fatalf("vacuous e2e: only %d recorded transactions (populate alone is %d)", txCount, relations*4)
	}
	if out := linearizability.CheckSerializable(recTx); !out.OK {
		t.Fatalf("served reservation history not strictly serializable:\n%s", out.Explain())
	}
	if ok, detail := eng.CheckTables(); !ok {
		t.Fatalf("reservation tables corrupt after served traffic: %s", detail)
	}
}

// TestServeMetricsMidRun scrapes /metrics while traffic is flowing and
// checks the streamed windows and monotonic totals.
func TestServeMetricsMidRun(t *testing.T) {
	srv := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		Engine:      EngineConfig{Workers: 2, Tagged: true, Relations: 8},
		StreamEvery: 2 * time.Millisecond,
	})
	defer shutdown(t, srv)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := dialClient(t, srv.Addr().String())
		defer c.close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.do(Request{Op: CmdPut, A: uint64(i%50 + 1), B: uint64(i + 1)})
			c.do(Request{Op: CmdGet, A: uint64(i%50 + 1)})
		}
	}()

	scrape := func() metricsPayload {
		resp, err := http.Get("http://" + srv.MetricsAddr().String() + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		var p metricsPayload
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatalf("decode /metrics: %v", err)
		}
		return p
	}

	deadline := time.Now().Add(5 * time.Second)
	var first metricsPayload
	for {
		first = scrape()
		if len(first.Windows) > 0 && first.Ops > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no mid-run windows appeared: %+v", first)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	second := scrape()
	if second.Ops < first.Ops {
		t.Fatalf("streamed ops regressed mid-run: %d then %d", first.Ops, second.Ops)
	}
	for _, w := range second.Windows {
		if w.End != w.Start+second.WindowNS {
			t.Fatalf("window [%d,%d) width != %d", w.Start, w.End, second.WindowNS)
		}
		if w.Ops > 0 && (w.P99 < w.P50 || float64(w.Max) < w.P99*0.5) {
			t.Fatalf("window quantiles implausible: %+v", w)
		}
	}
	close(stop)
	wg.Wait()
	if resp, err := http.Get("http://" + srv.MetricsAddr().String() + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestServePipelinedBatch drives a deep pipelined batch on one connection
// and checks every response arrives in order.
func TestServePipelinedBatch(t *testing.T) {
	srv := startServer(t, Config{Engine: EngineConfig{Workers: 2, Tagged: true}})
	defer shutdown(t, srv)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 500
	var out []byte
	for i := 0; i < n; i++ {
		req := Request{Op: CmdPut, A: uint64(i + 1), B: uint64(i + 1)}
		out = AppendRequest(out, &req)
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if line[0] != 'T' {
			t.Fatalf("response %d = %q, want T (distinct fresh keys)", i, line)
		}
	}
	sum := srv.Summarize()
	if sum.Requests < n {
		t.Fatalf("requests counter = %d, want >= %d", sum.Requests, n)
	}
}

// TestServeSummaryTiesViews sends good requests and malformed lines over
// two connections (one per worker) and ties the views of one run together:
// the Summary counts every line once (requests = ops + errors, an executed
// op's ERR reply counted as an op), its max is the largest merged window's
// max, and the windows' ops sum to its ops. Summarize runs once mid-run, so
// under -race it is checked against the writers too.
func TestServeSummaryTiesViews(t *testing.T) {
	const conns, good, bad = 2, 300, 30
	srv := startServer(t, Config{StreamDepth: 600, Engine: EngineConfig{Workers: conns, Tagged: true}})
	malformed := []string{"NOPE 1\n", "GET\n", "PUT 1 x\n", "GET 18446744073709551616\n"}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var out []byte
		for i := 0; i < good; i++ {
			if i%(good/bad) == 0 {
				out = append(out, malformed[i/(good/bad)%len(malformed)]...)
			}
			req := Request{Op: CmdPut, A: uint64(c<<20 + i), B: uint64(i % 3)} // B 0: Exec's ERR
			out = AppendRequest(out, &req)
		}
		if _, err := conn.Write(out); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			br := bufio.NewReader(conn)
			for i := 0; i < good+bad; i++ {
				if _, err := br.ReadBytes('\n'); err != nil {
					t.Errorf("response %d: %v", i, err)
					return
				}
			}
		}()
	}
	mid := srv.Summarize()
	wg.Wait()
	if mid.Requests != mid.Ops+mid.Errors || mid.Requests > conns*(good+bad) {
		t.Errorf("mid-run summary %+v", mid)
	}

	sum := srv.Summarize()
	if sum.Requests != conns*(good+bad) || sum.Errors != conns*bad || sum.Ops != conns*good {
		t.Fatalf("summary requests/errors/ops = %d/%d/%d, want %d/%d/%d",
			sum.Requests, sum.Errors, sum.Ops, conns*(good+bad), conns*bad, conns*good)
	}
	shutdown(t, srv)
	windows, _ := srv.Stream().ReadMergedWindows()
	var ops, maxNS uint64
	for _, w := range windows {
		ops += w.Ops
		maxNS = max(maxNS, w.Max)
	}
	if sum = srv.Summarize(); ops != sum.Ops || maxNS != sum.MaxNS {
		t.Fatalf("windows' ops %d, max %d; summary ops %d, max %d", ops, maxNS, sum.Ops, sum.MaxNS)
	}
	if !(0 < sum.P50NS && sum.P50NS <= sum.P99NS && sum.P99NS <= float64(sum.MaxNS)) {
		t.Fatalf("summary quantiles p50 %v, p99 %v, max %d", sum.P50NS, sum.P99NS, sum.MaxNS)
	}
}

func TestServeShutdownRejectsNewConns(t *testing.T) {
	srv := startServer(t, Config{Engine: EngineConfig{Workers: 1, Tagged: true}})
	c := dialClient(t, srv.Addr().String())
	if r := c.do(Request{Op: CmdPing}); r.Kind != RespPong {
		t.Fatalf("PING = %+v", r)
	}
	shutdown(t, srv)
	// The open connection is drained and closed...
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.br.ReadByte(); err == nil {
		t.Fatal("connection still open after shutdown")
	}
	c.close()
	// ...and new connections are refused.
	if conn, err := net.DialTimeout("tcp", srv.Addr().String(), 500*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}
