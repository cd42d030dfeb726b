package main

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// flakyServer answers every request with "T\n" but slams the connection
// shut after kill responses, exercising the load generator's mid-run
// session-death path.
func flakyServer(t *testing.T, kill int) (addr string, served *atomic.Uint64, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served = &atomic.Uint64{}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for n := 0; n < kill; n++ {
					if _, err := br.ReadBytes('\n'); err != nil {
						return
					}
					// Count before writing: the client may read this reply
					// and return before a post-write increment lands.
					served.Add(1)
					if _, err := c.Write([]byte("T\n")); err != nil {
						return
					}
				}
				// kill responses served: die abruptly, mid-pipeline.
			}(conn)
		}
	}()
	return ln.Addr().String(), served, func() { ln.Close() }
}

// TestRunLoadSurvivesSessionDeath pins the fix for the silent-tally-drop
// bug: a connection dying mid-run must not exit the process, and the final
// report must retain the dead sessions' partial counts, record the deaths,
// and charge the in-flight requests to their op class's error column.
func TestRunLoadSurvivesSessionDeath(t *testing.T) {
	addr, served, stop := flakyServer(t, 10)
	defer stop()

	mix, err := parseMix("sadd:100")
	if err != nil {
		t.Fatalf("parseMix: %v", err)
	}
	wcfg := workload.Config{KeyRange: 128}
	const total = 200
	cfg := &loadCfg{
		addr: addr, conns: 2, pipeline: 8,
		requests: total, deadline: time.Now().Add(30 * time.Second),
		mix: mix, keyRange: 128, resRange: 16,
		draw: workload.NewKeyDraw(&wcfg), seed: 1, distName: "uniform",
	}
	rep := runLoad(cfg)

	if rep.Deaths == 0 {
		t.Fatalf("expected session deaths against a connection-killing server, got 0 (report %+v)", rep)
	}
	if rep.Requests == 0 {
		t.Fatalf("partial tallies dropped: 0 completed requests despite %d served", served.Load())
	}
	// The abrupt close can RST away responses the server already counted,
	// so completed <= served (equality would flake).
	if rep.Requests > served.Load() {
		t.Errorf("completed requests %d > responses the server sent %d", rep.Requests, served.Load())
	}
	if rep.Errors == 0 {
		t.Errorf("in-flight requests of dead sessions not charged as errors")
	}
	if rep.Requests+rep.Errors > total {
		t.Errorf("accounted %d requests + %d errors > budget %d", rep.Requests, rep.Errors, total)
	}
	if len(rep.Classes) != 1 || rep.Classes[0].Name != "sadd" {
		t.Fatalf("expected one sadd class, got %+v", rep.Classes)
	}
	if got := rep.Classes[0].Errors; got != rep.Errors {
		t.Errorf("per-class errors %d != total errors %d", got, rep.Errors)
	}
	if rep.Classes[0].Count != rep.Requests {
		t.Errorf("per-class count %d != requests %d", rep.Classes[0].Count, rep.Requests)
	}
	if rep.TargetRPS != 0 {
		t.Errorf("closed loop should report target_rps 0, got %g", rep.TargetRPS)
	}
}

// TestRunLoadCleanRun sanity-checks the happy path against a well-behaved
// server: no deaths, no errors, all requests accounted.
func TestRunLoadCleanRun(t *testing.T) {
	addr, served, stop := flakyServer(t, 1<<30)
	defer stop()

	mix, err := parseMix("get:50,sadd:50")
	if err != nil {
		t.Fatalf("parseMix: %v", err)
	}
	wcfg := workload.Config{KeyRange: 128}
	cfg := &loadCfg{
		addr: addr, conns: 2, pipeline: 4,
		requests: 120, deadline: time.Now().Add(30 * time.Second),
		mix: mix, keyRange: 128, resRange: 16,
		draw: workload.NewKeyDraw(&wcfg), seed: 1, distName: "uniform",
	}
	rep := runLoad(cfg)
	if rep.Deaths != 0 || rep.Errors != 0 {
		t.Fatalf("clean run reported deaths=%d errors=%d", rep.Deaths, rep.Errors)
	}
	if rep.Requests != 120 || rep.Requests != served.Load() {
		t.Fatalf("requests %d, served %d, want 120", rep.Requests, served.Load())
	}
}

func TestPromValueAndExemplar(t *testing.T) {
	text := "# TYPE memtag_requests_total counter\n" +
		"memtag_requests_total 42\n" +
		"memtag_request_duration_ns_bucket{le=\"1023\"} 7 # {trace_id=\"0000000010000001\"} 900\n" +
		"memtag_request_duration_ns_bucket{le=\"2047\"} 9 # {trace_id=\"0000000010000002\"} 1800\n"
	v, ok := promValue(text, "memtag_requests_total")
	if !ok || v != 42 {
		t.Fatalf("promValue = %v, %v; want 42, true", v, ok)
	}
	if _, ok := promValue(text, "memtag_nope_total"); ok {
		t.Fatal("promValue found a missing metric")
	}
	if id := lastExemplarID(text); id != "0000000010000002" {
		t.Fatalf("lastExemplarID = %q", id)
	}
}

// TestParseMixOps: -mix accepts exactly the ten ops the generator fills,
// by their lowercase wire names, and refuses every other name as unknown.
func TestParseMixOps(t *testing.T) {
	mix, err := parseMix("get:10,put:10,del:10,sadd:10,srem:10,shas:10,resv:10,bill:10,cancel:10,ping:10")
	if err != nil {
		t.Fatalf("parseMix: %v", err)
	}
	want := []uint8{serve.CmdGet, serve.CmdPut, serve.CmdDel, serve.CmdSAdd, serve.CmdSRem,
		serve.CmdSHas, serve.CmdResv, serve.CmdBill, serve.CmdCancel, serve.CmdPing}
	for i, c := range mix {
		if c.op != want[i] || c.pct != 10 {
			t.Fatalf("entry %d = %+v, want op %d at 10%%", i, c, want[i])
		}
	}
	for _, name := range []string{"addcust", "addres", "delres", "qprice", "GET", "Get", "nope", ""} {
		if _, err := parseMix(name + ":100"); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("parseMix(%q:100) = %v, want an unknown op error", name, err)
		}
	}
}
