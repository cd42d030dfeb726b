// Command memtag-load drives traffic at a memtag-serve instance and
// reports SLO statistics. It reuses the experiment suite's key
// distributions (uniform / zipfian / hotset via workload.NewKeyDraw), so a
// served run is skew-comparable with the in-process benchmarks.
//
// Closed loop (default): each connection keeps -pipeline requests in
// flight and latency is measured write-to-response. Open loop (-rate):
// sends are scheduled at a fixed aggregate rate and latency is measured
// from the *scheduled* send time, so queueing delay from a saturated
// server is charged to the server rather than silently absorbed (no
// coordinated omission).
//
//	memtag-load -addr 127.0.0.1:7070 -conns 8 -duration 10s
//	memtag-load -dist zipfian -theta 0.99 -rate 50000 -json slo.json
//	memtag-load -storm-every 2s -storm-duration 200ms -churn-every 500ms
//
// -min-rate makes the process exit nonzero if achieved throughput falls
// short — the CI smoke gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/vacation"
	"repro/internal/workload"
)

// opClass is one entry of the -mix: a wire op and its traffic share.
type opClass struct {
	name string
	op   uint8
	pct  int
}

// mixOps are the wire ops the generator fills arguments for; a -mix entry
// names one by its lowercase wire name.
var mixOps = []uint8{
	serve.CmdGet, serve.CmdPut, serve.CmdDel, serve.CmdSAdd, serve.CmdSRem,
	serve.CmdSHas, serve.CmdResv, serve.CmdBill, serve.CmdCancel, serve.CmdPing,
}

func parseMix(s string) ([]opClass, error) {
	var mix []opClass
	total := 0
	for _, part := range strings.Split(s, ",") {
		name, pctStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want op:pct", part)
		}
		i := slices.IndexFunc(mixOps, func(op uint8) bool { return strings.ToLower(serve.CmdName(op)) == name })
		if i < 0 {
			return nil, fmt.Errorf("mix entry %q: unknown op", part)
		}
		pct, err := strconv.Atoi(pctStr)
		if err != nil || pct <= 0 {
			return nil, fmt.Errorf("mix entry %q: bad percentage", part)
		}
		mix = append(mix, opClass{name: name, op: mixOps[i], pct: pct})
		total += pct
	}
	if total != 100 {
		return nil, fmt.Errorf("mix percentages sum to %d, want 100", total)
	}
	return mix, nil
}

// classSLO is the per-op-class section of the -json report. Errors counts
// both ERR responses and requests lost in flight when a session died, so a
// partial run still accounts for every request it sent.
type classSLO struct {
	Name   string  `json:"name"`
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	P50NS  float64 `json:"p50_ns"`
	P95NS  float64 `json:"p95_ns"`
	P99NS  float64 `json:"p99_ns"`
	MaxNS  uint64  `json:"max_ns"`
}

// metricsReport is the -metrics-url section of the report: the scrape
// count, whether the cumulative counters stayed monotonic across scrapes,
// and the last exemplar trace ID seen in the exposition.
type metricsReport struct {
	URL          string `json:"url"`
	Scrapes      uint64 `json:"scrapes"`
	Monotonic    bool   `json:"monotonic"`
	LastExemplar string `json:"last_exemplar,omitempty"`
	Error        string `json:"error,omitempty"`
}

// report always carries both the achieved rate (RateRPS) and the target
// (TargetRPS, 0 for closed loop), and is assembled from whatever tallies
// survived — connections that died mid-run keep their partial counts.
type report struct {
	Addr      string         `json:"addr"`
	Conns     int            `json:"conns"`
	Pipeline  int            `json:"pipeline"`
	Dist      string         `json:"dist"`
	RateRPS   float64        `json:"rate_rps"`
	TargetRPS float64        `json:"target_rps"`
	ElapsedNS int64          `json:"elapsed_ns"`
	Requests  uint64         `json:"requests"`
	Errors    uint64         `json:"errors"`
	Churns    uint64         `json:"churns"`
	Deaths    uint64         `json:"deaths"`
	Classes   []classSLO     `json:"classes"`
	Metrics   *metricsReport `json:"metrics,omitempty"`
}

type loadCfg struct {
	addr          string
	conns         int
	pipeline      int
	requests      uint64 // 0 = duration-bound
	deadline      time.Time
	rate          float64 // aggregate target rps; 0 = closed loop
	mix           []opClass
	keyRange      uint64
	resRange      uint64
	draw          func(*rand.Rand) func() uint64
	stormEvery    time.Duration
	stormDuration time.Duration
	churnEvery    time.Duration
	seed          int64
	metricsURL    string
	distName      string

	sent     atomic.Uint64 // request-budget allocator when requests > 0
	storming atomic.Bool
}

// connStats is one connection's tally: latency histograms and error counts
// indexed by mix position, plus churn/death/completion counts. No locks —
// each belongs to a single goroutine until the final merge.
type connStats struct {
	lat    []telemetry.Histogram
	errs   []uint64 // per-class: ERR responses + in-flight losses
	errors uint64
	churns uint64
	deaths uint64 // sessions that died mid-run (read/write/dial failure)
	done   uint64
}

// budget returns how many of the `want` requests this conn may still send
// (0 ends the run). Count-bound runs claim slots from the shared counter;
// duration-bound runs check the deadline.
func (cfg *loadCfg) budget(want int) int {
	if cfg.requests > 0 {
		claimed := cfg.sent.Add(uint64(want))
		if claimed <= cfg.requests {
			return want
		}
		over := claimed - cfg.requests
		if uint64(want) <= over {
			return 0
		}
		return want - int(over)
	}
	if time.Now().After(cfg.deadline) {
		return 0
	}
	return want
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "memtag-serve address")
		conns      = flag.Int("conns", 8, "concurrent connections")
		pipeline   = flag.Int("pipeline", 32, "in-flight requests per connection")
		requests   = flag.Uint64("requests", 0, "stop after this many total requests (0 = use -duration)")
		duration   = flag.Duration("duration", 10*time.Second, "run length when -requests is 0")
		rate       = flag.Float64("rate", 0, "aggregate open-loop send rate in req/s (0 = closed loop)")
		mixFlag    = flag.String("mix", "get:40,put:25,del:10,sadd:10,srem:5,shas:5,resv:3,bill:1,cancel:1", "op mix, percentages summing to 100")
		keyRange   = flag.Uint64("range", 16384, "KV/set key range")
		resRange   = flag.Uint64("res-range", 1024, "reservation resource-id range")
		dist       = flag.String("dist", "uniform", "key distribution: uniform, zipfian or hotset")
		theta      = flag.Float64("theta", 0, "zipfian theta (0 = default 0.99)")
		hotKeys    = flag.Int("hot-keys", 0, "hotset: percent of keys that are hot (0 = default 10)")
		hotTraf    = flag.Int("hot-traffic", 0, "hotset: percent of traffic to hot keys (0 = default 90)")
		stormEv    = flag.Duration("storm-every", 0, "hot-key storm interval (0 = no storms)")
		stormDur   = flag.Duration("storm-duration", 100*time.Millisecond, "hot-key storm length")
		churnEv    = flag.Duration("churn-every", 0, "re-dial each connection this often (0 = never)")
		jsonOut    = flag.String("json", "", "write the SLO report as JSON to this file (\"-\" = stdout)")
		minRate    = flag.Float64("min-rate", 0, "exit nonzero if achieved req/s falls below this")
		seed       = flag.Int64("seed", 1, "rng seed")
		metricsURL = flag.String("metrics-url", "", "scrape this Prometheus /metrics URL during the run and assert counter monotonicity")
	)
	flag.Parse()

	mix, err := parseMix(*mixFlag)
	if err != nil {
		fatalf("%v", err)
	}
	kd, err := workload.ParseKeyDist(*dist)
	if err != nil {
		fatalf("%v", err)
	}
	if *conns <= 0 || *pipeline <= 0 || *keyRange == 0 {
		fatalf("-conns, -pipeline and -range must be positive")
	}
	wcfg := workload.Config{
		KeyRange:      *keyRange,
		Dist:          kd,
		ZipfTheta:     *theta,
		HotKeysPct:    *hotKeys,
		HotTrafficPct: *hotTraf,
	}
	dl := time.Now().Add(*duration)
	if *requests > 0 {
		dl = time.Now().Add(24 * time.Hour) // count-bound: the budget governs
	}
	cfg := &loadCfg{
		addr: *addr, conns: *conns, pipeline: *pipeline,
		requests: *requests, deadline: dl, rate: *rate, mix: mix,
		keyRange: *keyRange, resRange: *resRange,
		draw:       workload.NewKeyDraw(&wcfg),
		stormEvery: *stormEv, stormDuration: *stormDur,
		churnEvery: *churnEv, seed: *seed,
		metricsURL: *metricsURL, distName: kd.String(),
	}

	rep := runLoad(cfg)

	fmt.Fprintf(os.Stderr, "memtag-load: %d requests in %v = %.0f req/s (%d errors, %d churns, %d deaths)\n",
		rep.Requests, time.Duration(rep.ElapsedNS).Round(time.Millisecond), rep.RateRPS,
		rep.Errors, rep.Churns, rep.Deaths)
	for _, c := range rep.Classes {
		fmt.Fprintf(os.Stderr, "  %-6s n=%-9d p50=%8.0fns p95=%8.0fns p99=%8.0fns max=%dns\n",
			c.Name, c.Count, c.P50NS, c.P95NS, c.P99NS, c.MaxNS)
	}
	if *jsonOut != "" {
		w := os.Stdout
		if *jsonOut != "-" {
			w, err = os.Create(*jsonOut)
			if err != nil {
				fatalf("%v", err)
			}
			defer w.Close()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			fatalf("writing report: %v", err)
		}
	}
	if rep.Metrics != nil && rep.Metrics.Error != "" {
		fatalf("metrics scrape: %s", rep.Metrics.Error)
	}
	if rep.Metrics != nil && !rep.Metrics.Monotonic {
		fatalf("metrics counters regressed between scrapes")
	}
	if rep.Errors > 0 {
		fatalf("%d error responses", rep.Errors)
	}
	if rep.Deaths > 0 {
		fatalf("%d sessions died", rep.Deaths)
	}
	if *minRate > 0 && rep.RateRPS < *minRate {
		fatalf("achieved %.0f req/s < -min-rate %.0f", rep.RateRPS, *minRate)
	}
}

// runLoad runs the whole load: the storm clock, the optional metrics
// scraper, one goroutine per connection, and the final merge. It always
// returns a complete report — sessions that died keep their partial
// tallies, with in-flight requests charged to their op class's errors.
func runLoad(cfg *loadCfg) report {
	// Storm clock: while storming, every key draw collapses onto two
	// scorching keys, serializing the whole fleet on them.
	stopStorm := make(chan struct{})
	if cfg.stormEvery > 0 {
		go func() {
			tick := time.NewTicker(cfg.stormEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopStorm:
					return
				case <-tick.C:
					cfg.storming.Store(true)
					select {
					case <-stopStorm:
						return
					case <-time.After(cfg.stormDuration):
						cfg.storming.Store(false)
					}
				}
			}
		}()
	}

	var mrep *metricsReport
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	if cfg.metricsURL != "" {
		mrep = &metricsReport{URL: cfg.metricsURL, Monotonic: true}
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			scrapeLoop(cfg.metricsURL, mrep, stopScrape)
		}()
	}

	stats := make([]connStats, cfg.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.conns; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runConn(cfg, id, &stats[id])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopStorm)
	close(stopScrape)
	scrapeWG.Wait()

	rep := report{
		Addr: cfg.addr, Conns: cfg.conns, Pipeline: cfg.pipeline,
		Dist: cfg.distName, TargetRPS: cfg.rate, ElapsedNS: int64(elapsed),
		Metrics: mrep,
	}
	merged := make([]telemetry.Histogram, len(cfg.mix))
	mergedErrs := make([]uint64, len(cfg.mix))
	for i := range stats {
		rep.Errors += stats[i].errors
		rep.Churns += stats[i].churns
		rep.Deaths += stats[i].deaths
		rep.Requests += stats[i].done
		for j := range merged {
			merged[j].Merge(&stats[i].lat[j])
			mergedErrs[j] += stats[i].errs[j]
		}
	}
	rep.RateRPS = float64(rep.Requests) / elapsed.Seconds()
	for j, m := range cfg.mix {
		h := &merged[j]
		if h.Count() == 0 && mergedErrs[j] == 0 {
			continue
		}
		rep.Classes = append(rep.Classes, classSLO{
			Name: m.name, Count: h.Count(), Errors: mergedErrs[j],
			P50NS: h.Quantile(0.50), P95NS: h.Quantile(0.95),
			P99NS: h.Quantile(0.99), MaxNS: h.Max(),
		})
	}
	sort.Slice(rep.Classes, func(a, b int) bool { return rep.Classes[a].Count > rep.Classes[b].Count })
	return rep
}

// session exit reasons.
const (
	exitBudget = iota // global run is over
	exitChurn         // churn boundary: re-dial and continue
	exitDead          // the session died (read/write failure); tallies kept
)

// maxDialRetries bounds consecutive dial failures before a connection
// gives up for the rest of the run.
const maxDialRetries = 5

// runConn drives one connection until the run ends, re-dialing every
// churnEvery (connection churn exercises the server's accept / register /
// unregister path under load). A session that dies mid-run keeps its
// partial tallies, records a death, and re-dials; only a run-ending budget
// or repeated dial failures stop the loop.
func runConn(cfg *loadCfg, id int, st *connStats) {
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)*7919))
	drawKey := cfg.draw(rng)
	st.lat = make([]telemetry.Histogram, len(cfg.mix))
	st.errs = make([]uint64, len(cfg.mix))

	// nextReq fills req in place and returns the mix index, honouring
	// storms.
	nextReq := func(req *serve.Request) int {
		p := rng.Intn(100)
		j := 0
		for acc := cfg.mix[0].pct; p >= acc; acc += cfg.mix[j].pct {
			j++
		}
		key := drawKey()
		if cfg.storming.Load() {
			key %= 2
		}
		*req = serve.Request{Op: cfg.mix[j].op}
		switch req.Op {
		case serve.CmdGet, serve.CmdDel, serve.CmdSAdd, serve.CmdSRem, serve.CmdSHas:
			req.A = key
		case serve.CmdPut:
			req.A, req.B = key, uint64(rng.Int63n(1_000_000))+1
		case serve.CmdResv:
			req.A = key % cfg.keyRange
			req.B = uint64(rng.Intn(vacation.NumKinds))
			req.C = uint64(rng.Int63n(int64(cfg.resRange))) + 1
		case serve.CmdBill, serve.CmdCancel:
			req.A = key % cfg.keyRange
		}
		return j
	}

	dialFails := 0
	for {
		conn, err := net.Dial("tcp", cfg.addr)
		if err != nil {
			dialFails++
			if dialFails > maxDialRetries {
				fmt.Fprintf(os.Stderr, "memtag-load: conn %d: giving up after %d dial failures: %v\n",
					id, dialFails, err)
				st.deaths++
				return
			}
			if time.Now().After(cfg.deadline) {
				return
			}
			time.Sleep(time.Duration(dialFails) * 50 * time.Millisecond)
			continue
		}
		dialFails = 0
		sessionEnd := cfg.deadline
		if cfg.churnEvery > 0 {
			if end := time.Now().Add(cfg.churnEvery); end.Before(sessionEnd) {
				sessionEnd = end
			}
		}
		reason, serr := runSession(cfg, conn, sessionEnd, nextReq, st)
		conn.Close()
		switch {
		case reason == exitDead:
			st.deaths++
			fmt.Fprintf(os.Stderr, "memtag-load: conn %d: session died: %v\n", id, serr)
			if time.Now().After(cfg.deadline) {
				return
			}
		case reason == exitBudget || time.Now().After(cfg.deadline):
			return
		default:
			st.churns++
		}
	}
}

// runSession pumps requests on one dialed connection until the session
// deadline (churn boundary), the global budget, or a connection failure
// ends it. On failure it returns exitDead with the cause — requests still
// in flight are charged to their op class's error count, and everything
// already tallied survives.
func runSession(cfg *loadCfg, conn net.Conn, sessionEnd time.Time,
	nextReq func(*serve.Request) int, st *connStats) (int, error) {

	bw := bufio.NewWriterSize(conn, 64<<10)
	br := bufio.NewReaderSize(conn, 64<<10)
	classOf := make([]int, cfg.pipeline)
	stamp := make([]time.Time, cfg.pipeline)
	var buf []byte
	var req serve.Request

	readOne := func(i int) error {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
		resp, err := serve.ParseResponse(line)
		if err != nil {
			return fmt.Errorf("bad response %q: %v", line, err)
		}
		if resp.Kind == serve.RespErr {
			st.errors++
			st.errs[classOf[i]]++
		}
		st.lat[classOf[i]].Observe(uint64(time.Since(stamp[i])))
		st.done++
		return nil
	}

	if cfg.rate == 0 {
		// Closed loop: batches of `pipeline` in flight.
		for {
			// Session check first: budget() claims slots from the shared
			// counter, and a claimed-then-unsent batch would leak them.
			if time.Now().After(sessionEnd) {
				return exitChurn, nil
			}
			n := cfg.budget(cfg.pipeline)
			if n == 0 {
				return exitBudget, nil
			}
			sent := 0
			var ferr error
			for i := 0; i < n; i++ {
				classOf[i] = nextReq(&req)
				stamp[i] = time.Now()
				buf = serve.AppendRequest(buf[:0], &req)
				if _, err := bw.Write(buf); err != nil {
					ferr = fmt.Errorf("write: %w", err)
					break
				}
				sent++
			}
			if ferr == nil {
				if err := bw.Flush(); err != nil {
					ferr = fmt.Errorf("flush: %w", err)
				}
			}
			read := 0
			for ferr == nil && read < n {
				if err := readOne(read); err != nil {
					ferr = err
					break
				}
				read++
			}
			if ferr != nil {
				// The batch died: requests written but unanswered are lost.
				for k := read; k < sent; k++ {
					st.errors++
					st.errs[classOf[k]]++
				}
				return exitDead, ferr
			}
		}
	}

	// Open loop: sends are paced on the schedule; a FIFO ring of scheduled
	// stamps (capacity = pipeline) backpressures when the server falls too
	// far behind.
	interval := time.Duration(float64(time.Second) * float64(cfg.conns) / cfg.rate)
	next := time.Now()
	head, tail, inflight := 0, 0, 0
	// die charges every in-flight request as an error and ends the session.
	die := func(err error) (int, error) {
		for ; inflight > 0; inflight-- {
			st.errors++
			st.errs[classOf[head]]++
			head = (head + 1) % cfg.pipeline
		}
		return exitDead, err
	}
	drain := func() error {
		for inflight > 0 {
			if err := readOne(head); err != nil {
				return err
			}
			head = (head + 1) % cfg.pipeline
			inflight--
		}
		return nil
	}
	for {
		if time.Now().After(sessionEnd) {
			if err := drain(); err != nil {
				return die(err)
			}
			return exitChurn, nil
		}
		if cfg.budget(1) == 0 {
			if err := drain(); err != nil {
				return die(err)
			}
			return exitBudget, nil
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		for inflight >= cfg.pipeline {
			if err := readOne(head); err != nil {
				return die(err)
			}
			head = (head + 1) % cfg.pipeline
			inflight--
		}
		classOf[tail] = nextReq(&req)
		stamp[tail] = next // scheduled time, not send time: no coordinated omission
		tail = (tail + 1) % cfg.pipeline
		inflight++
		buf = serve.AppendRequest(buf[:0], &req)
		if _, err := bw.Write(buf); err != nil {
			return die(fmt.Errorf("write: %w", err))
		}
		if err := bw.Flush(); err != nil {
			return die(fmt.Errorf("flush: %w", err))
		}
		next = next.Add(interval)
		// Opportunistically drain whatever responses already arrived.
		for inflight > 0 && br.Buffered() > 0 {
			if err := readOne(head); err != nil {
				return die(err)
			}
			head = (head + 1) % cfg.pipeline
			inflight--
		}
	}
}

// scrapeLoop polls the server's Prometheus exposition for the run's
// duration, asserting the cumulative request counter never regresses
// between scrapes and capturing the last exemplar trace ID it sees. One
// final scrape runs at stop, so even a short run records at least one.
func scrapeLoop(url string, rep *metricsReport, stop <-chan struct{}) {
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	var lastRequests float64
	scrape := func() {
		hreq, err := http.NewRequest("GET", url, nil)
		if err != nil {
			rep.Error = err.Error()
			return
		}
		hreq.Header.Set("Accept", "text/plain")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			rep.Error = err.Error()
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			rep.Error = err.Error()
			return
		}
		if resp.StatusCode != http.StatusOK {
			rep.Error = fmt.Sprintf("scrape status %d", resp.StatusCode)
			return
		}
		text := string(body)
		v, ok := promValue(text, "memtag_requests_total")
		if !ok {
			rep.Error = "memtag_requests_total missing from exposition"
			return
		}
		rep.Scrapes++
		if v < lastRequests {
			rep.Monotonic = false
		}
		lastRequests = v
		if ex := lastExemplarID(text); ex != "" {
			rep.LastExemplar = ex
		}
	}
	for {
		select {
		case <-stop:
			scrape()
			return
		case <-t.C:
			scrape()
		}
	}
}

// promValue finds an unlabelled sample line ("name value") in a Prometheus
// text exposition.
func promValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// lastExemplarID extracts the trace ID of the last exemplar in the
// exposition (`... # {trace_id="<id>"} <value>`).
func lastExemplarID(text string) string {
	const marker = `# {trace_id="`
	i := strings.LastIndex(text, marker)
	if i < 0 {
		return ""
	}
	rest := text[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "memtag-load: "+format+"\n", args...)
	os.Exit(1)
}
