package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flightTestConfig is a small spans-armed server with the metrics plane on.
func flightTestConfig(dumpDir string) Config {
	return Config{
		MetricsAddr: "127.0.0.1:0",
		Flight: FlightConfig{
			Spans:   true,
			Depth:   64,
			DumpDir: dumpDir,
		},
		Engine: EngineConfig{Workers: 2, Tagged: true, Relations: 8},
	}
}

func httpGet(t *testing.T, url, accept string) (int, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(body)
}

// checkPromHistogram asserts the request-latency histogram in one text
// scrape is a valid Prometheus histogram — le buckets cumulative, the last
// finite bucket equal to +Inf equal to _count — and returns that count.
func checkPromHistogram(t *testing.T, text string) uint64 {
	t.Helper()
	const name = "memtag_request_duration_ns"
	var prev, count uint64
	buckets := 0
	for _, line := range strings.Split(text, "\n") {
		var v uint64
		switch {
		case strings.HasPrefix(line, name+"_bucket{le="):
			fmt.Sscanf(strings.SplitN(line, "} ", 2)[1], "%d", &v)
			if v < prev {
				t.Errorf("bucket counts not cumulative: %q after %d", line, prev)
			}
			if strings.Contains(line, `le="+Inf"`) && v != prev {
				t.Errorf("+Inf bucket %d != last finite bucket %d", v, prev)
			}
			prev = v
			buckets++
		case strings.HasPrefix(line, name+"_count "):
			fmt.Sscanf(strings.TrimPrefix(line, name+"_count "), "%d", &count)
			if count != prev {
				t.Errorf("_count %d != +Inf bucket %d", count, prev)
			}
		}
	}
	if buckets == 0 {
		t.Errorf("no %s buckets in scrape:\n%s", name, text)
	}
	return count
}

// TestPprofGate pins the profiling surface's default absence: /debug/pprof
// 404s unless Config.Pprof is set.
func TestPprofGate(t *testing.T) {
	srv := startServer(t, Config{MetricsAddr: "127.0.0.1:0",
		Engine: EngineConfig{Workers: 1, Tagged: true}})
	base := "http://" + srv.MetricsAddr().String()
	if code, _ := httpGet(t, base+"/debug/pprof/", ""); code != http.StatusNotFound {
		t.Fatalf("pprof off: GET /debug/pprof/ = %d, want 404", code)
	}
	if code, _ := httpGet(t, base+"/debug/pprof/cmdline", ""); code != http.StatusNotFound {
		t.Fatalf("pprof off: GET /debug/pprof/cmdline = %d, want 404", code)
	}
	shutdown(t, srv)

	srv = startServer(t, Config{MetricsAddr: "127.0.0.1:0", Pprof: true,
		Engine: EngineConfig{Workers: 1, Tagged: true}})
	defer shutdown(t, srv)
	base = "http://" + srv.MetricsAddr().String()
	code, body := httpGet(t, base+"/debug/pprof/", "")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof on: GET /debug/pprof/ = %d (%q...)", code, body[:min(len(body), 60)])
	}
}

// TestPrometheusExposition covers the content negotiation and the text
// format: counters, the le-bucket histogram, monotonicity across scrapes,
// and the exemplar carrying a tail-sampled request's trace ID.
func TestPrometheusExposition(t *testing.T) {
	srv := startServer(t, flightTestConfig(t.TempDir()))
	defer shutdown(t, srv)
	c := dialClient(t, srv.Addr().String())
	defer c.close()

	for i := 0; i < 20; i++ {
		if r := c.do(Request{Op: CmdPut, A: uint64(i), B: 7}); r.Kind != RespTrue {
			t.Fatalf("PUT = %+v", r)
		}
	}
	// An ERR response (PUT value 0) makes a tail-kept span -> exemplar.
	if r := c.do(Request{Op: CmdPut, A: 1, B: 0}); r.Kind != RespErr {
		t.Fatalf("PUT 0 = %+v, want ERR", r)
	}

	base := "http://" + srv.MetricsAddr().String()

	// Default stays JSON (existing consumers), including the span totals.
	_, jsonBody := httpGet(t, base+"/metrics", "")
	var payload struct {
		Requests      uint64 `json:"requests"`
		SpansRecorded uint64 `json:"spans_recorded"`
		SpansKept     uint64 `json:"spans_kept"`
	}
	if err := json.Unmarshal([]byte(jsonBody), &payload); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	if payload.Requests < 21 || payload.SpansRecorded < 21 || payload.SpansKept == 0 {
		t.Fatalf("JSON totals wrong: %+v", payload)
	}

	code, text := httpGet(t, base+"/metrics", "text/plain")
	if code != http.StatusOK {
		t.Fatalf("prometheus scrape = %d", code)
	}
	for _, want := range []string{
		"# TYPE memtag_requests_total counter",
		"memtag_requests_total 21",
		"memtag_errors_total 0", // wire ERR from Exec is not a protocol decode error
		"# TYPE memtag_request_duration_ns histogram",
		`memtag_request_duration_ns_bucket{le="+Inf"} 21`,
		"memtag_request_duration_ns_count 21",
		"memtag_spans_recorded_total 21",
		"# TYPE memtag_stm_commits_total counter",
		`# {trace_id="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	if count := checkPromHistogram(t, text); count != 21 {
		t.Fatalf("histogram count = %d, want 21", count)
	}

	// More traffic, second scrape: counters are monotonic.
	for i := 0; i < 5; i++ {
		c.do(Request{Op: CmdGet, A: uint64(i)})
	}
	_, text2 := httpGet(t, base+"/metrics?format=prometheus", "")
	if !strings.Contains(text2, "memtag_requests_total 26") {
		t.Fatalf("second scrape lost requests:\n%s", text2)
	}
}

// TestFlightDumpBundle is the post-mortem end to end: traffic including an
// errored request, TriggerDump, then the bundle must contain the offending
// span, linked by the same trace ID the stats exemplars carry.
func TestFlightDumpBundle(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, flightTestConfig(dir))
	defer shutdown(t, srv)
	c := dialClient(t, srv.Addr().String())
	defer c.close()

	for i := 0; i < 10; i++ {
		c.do(Request{Op: CmdPut, A: uint64(i), B: 5})
	}
	if r := c.do(Request{Op: CmdPut, A: 1, B: 0}); r.Kind != RespErr {
		t.Fatalf("PUT 0 = %+v, want ERR", r)
	}

	got, err := srv.TriggerDump("test-breach")
	if err != nil {
		t.Fatalf("TriggerDump: %v", err)
	}
	if got != dir {
		t.Fatalf("dump dir = %q, want %q", got, dir)
	}

	var stats DumpStats
	raw, err := os.ReadFile(filepath.Join(dir, "stats.json"))
	if err != nil {
		t.Fatalf("stats.json: %v", err)
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats.json parse: %v", err)
	}
	if stats.Reason != "test-breach" || stats.Dumps != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.SpansRecorded != 11 || stats.SpansKept == 0 {
		t.Fatalf("span totals = %d/%d, want 11 recorded, >0 kept", stats.SpansRecorded, stats.SpansKept)
	}
	if stats.Engine.KV.Commits == 0 {
		t.Fatalf("engine stats empty: %+v", stats.Engine)
	}
	if len(stats.Exemplars) == 0 {
		t.Fatal("no exemplars in stats.json despite a kept span")
	}

	var wins windowsBlock
	raw, err = os.ReadFile(filepath.Join(dir, "windows.json"))
	if err != nil {
		t.Fatalf("windows.json: %v", err)
	}
	if err := json.Unmarshal(raw, &wins); err != nil {
		t.Fatalf("windows.json parse: %v", err)
	}
	if wins.WindowNS == 0 {
		t.Fatalf("windows.json window_ns = 0")
	}

	raw, err = os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace.json parse: %v", err)
	}
	// The exemplar's trace ID must resolve to a span begin event in the
	// trace — that is the whole point of the link.
	ids := map[string]bool{}
	sawErrSpan := false
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "b" || ev.Args == nil {
			continue
		}
		if rid, ok := ev.Args["req_id"].(float64); ok {
			ids[fmt.Sprintf("%016x", uint64(rid))] = true
		}
		if errv, ok := ev.Args["err"].(bool); ok && errv {
			sawErrSpan = true
		}
	}
	for _, ex := range stats.Exemplars {
		if !ids[ex.TraceID] {
			t.Errorf("exemplar %s not found among trace span IDs %v", ex.TraceID, ids)
		}
	}
	if !sawErrSpan {
		t.Error("the errored request's span is missing from trace.json")
	}
}

// TestSLOAutoDump arms an absurd 1ns p99 budget over one window, pushes
// traffic, and expects the monitor to write a bundle on its own.
func TestSLOAutoDump(t *testing.T) {
	dir := t.TempDir()
	cfg := flightTestConfig(dir)
	cfg.StreamEvery = 5 * time.Millisecond
	cfg.Flight.SLOP99 = 1
	cfg.Flight.SLOWindows = 1
	srv := startServer(t, cfg)
	defer shutdown(t, srv)
	c := dialClient(t, srv.Addr().String())
	defer c.close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Dumps() == 0 && time.Now().Before(deadline) {
		c.do(Request{Op: CmdPut, A: 1, B: 2})
	}
	if srv.Dumps() == 0 {
		t.Fatal("SLO monitor never dumped despite a 1ns p99 budget")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "stats.json"))
	if err != nil {
		t.Fatalf("stats.json: %v", err)
	}
	var stats DumpStats
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats.json parse: %v", err)
	}
	if stats.Reason != "slo-breach" {
		t.Fatalf("reason = %q, want slo-breach", stats.Reason)
	}
}

// TestScrapeDuringDrain pins satellite (c): scraping /metrics (both
// formats) while a graceful shutdown drains must not panic or tear, and
// totals stay monotonic through the final Summarize.
func TestScrapeDuringDrain(t *testing.T) {
	srv := startServer(t, flightTestConfig(t.TempDir()))
	base := "http://" + srv.MetricsAddr().String()

	// Traffic from several connections, running until their conns die at
	// shutdown.
	var tw sync.WaitGroup
	for i := 0; i < 3; i++ {
		tw.Add(1)
		go func(seed uint64) {
			defer tw.Done()
			conn := dialClient(t, srv.Addr().String())
			defer conn.close()
			var buf []byte
			for j := uint64(0); ; j++ {
				req := Request{Op: CmdPut, A: (seed*1000 + j) % 256, B: 7}
				buf = AppendRequest(buf[:0], &req)
				if _, err := conn.conn.Write(buf); err != nil {
					return
				}
				if _, err := conn.br.ReadBytes('\n'); err != nil {
					return
				}
			}
		}(uint64(i))
	}

	// Scraper: alternate JSON and Prometheus until the HTTP plane goes
	// away; every successful JSON scrape must be parseable and monotonic.
	var lastRequests atomic.Uint64
	scrapes := 0
	scrapeOnce := func() bool {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return false
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return false
		}
		var p struct {
			Requests uint64 `json:"requests"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			t.Errorf("torn JSON scrape: %v", err)
			return false
		}
		if prev := lastRequests.Load(); p.Requests < prev {
			t.Errorf("requests went backwards: %d after %d", p.Requests, prev)
		}
		lastRequests.Store(p.Requests)
		presp, err := http.Get(base + "/metrics?format=prometheus")
		if err != nil {
			return false
		}
		pbody, err := io.ReadAll(presp.Body)
		presp.Body.Close()
		if err == nil {
			if !strings.Contains(string(pbody), "memtag_requests_total") {
				t.Errorf("prometheus scrape torn:\n%s", pbody)
			}
			checkPromHistogram(t, string(pbody))
		}
		scrapes++
		return true
	}
	if !scrapeOnce() {
		t.Fatal("initial scrape failed")
	}

	done := make(chan struct{})
	var sw sync.WaitGroup
	sw.Add(1)
	go func() {
		defer sw.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			scrapeOnce()
		}
	}()

	time.Sleep(50 * time.Millisecond) // let traffic and scrapes overlap
	shutdown(t, srv)                  // drains while the scraper hammers /metrics
	close(done)
	sw.Wait()
	tw.Wait()

	sum := srv.Summarize()
	if sum.Requests < lastRequests.Load() {
		t.Fatalf("Summarize lost requests: %d < last scraped %d", sum.Requests, lastRequests.Load())
	}
	if scrapes == 0 {
		t.Fatal("no successful scrapes during the run")
	}
}
