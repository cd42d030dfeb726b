package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/reclaim"
)

// Soak: millions of served requests with immediate reclamation while a
// scraper streams /metrics, then a leak audit — goroutine count and open
// file descriptors must return to their pre-server baseline after
// Shutdown, streamed totals must be monotonic and account for every
// request, and the reclaim pools' high-water footprint must stay bounded
// by the live key range (i.e. freed nodes really are reused, not leaked).

func countFDs(t *testing.T) (int, bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Logf("fd audit unavailable: %v", err)
		return 0, false
	}
	return len(ents), true
}

func runServeSoak(t *testing.T, total int) {
	const (
		conns    = 4
		batch    = 256
		keyRange = 4096
	)
	total -= total % (conns * batch)

	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()
	baseFDs, fdOK := countFDs(t)

	srv := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		StreamEvery: 5 * time.Millisecond,
		Engine: EngineConfig{
			Workers:       4,
			MemBytes:      256 << 20,
			Tagged:        true,
			Reclaim:       true,
			ReclaimPolicy: reclaim.PolicyImmediate,
		},
	})
	addr := srv.Addr().String()
	metricsURL := fmt.Sprintf("http://%s/metrics", srv.MetricsAddr())

	// Traffic: pipelined batches of a delete-heavy KV/set mix over a small
	// key range, so nodes churn through the immediate-reclaim pools.
	var sent, errResponses atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("conn %d: dial: %v", id, err)
				return
			}
			defer conn.Close()
			bw := bufio.NewWriterSize(conn, 32<<10)
			br := bufio.NewReaderSize(conn, 32<<10)
			rng := uint64(id)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 { // splitmix64
				rng += 0x9e3779b97f4a7c15
				z := rng
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				return z ^ (z >> 31)
			}
			var buf []byte
			for done := 0; done < total/conns; done += batch {
				for i := 0; i < batch; i++ {
					r := next()
					key := r % keyRange
					var req Request
					switch {
					case r>>32%100 < 30:
						req = Request{Op: CmdPut, A: key, B: r%1000 + 1}
					case r>>32%100 < 50:
						req = Request{Op: CmdDel, A: key}
					case r>>32%100 < 70:
						req = Request{Op: CmdGet, A: key}
					case r>>32%100 < 85:
						req = Request{Op: CmdSAdd, A: key}
					case r>>32%100 < 95:
						req = Request{Op: CmdSRem, A: key}
					default:
						req = Request{Op: CmdSHas, A: key}
					}
					buf = AppendRequest(buf[:0], &req)
					if _, err := bw.Write(buf); err != nil {
						t.Errorf("conn %d: write: %v", id, err)
						return
					}
				}
				if err := bw.Flush(); err != nil {
					t.Errorf("conn %d: flush: %v", id, err)
					return
				}
				for i := 0; i < batch; i++ {
					line, err := br.ReadBytes('\n')
					if err != nil {
						t.Errorf("conn %d: read: %v", id, err)
						return
					}
					resp, err := ParseResponse(line)
					if err != nil {
						t.Errorf("conn %d: bad response %q: %v", id, line, err)
						return
					}
					if resp.Kind == RespErr {
						errResponses.Add(1)
					}
				}
				sent.Add(batch)
			}
		}(c)
	}

	// Scraper: streamed totals must be monotonic while traffic is live.
	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	tr := &http.Transport{}
	httpc := &http.Client{Transport: tr, Timeout: 2 * time.Second}
	var scrapes, lastOps atomic.Uint64
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-scrapeStop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			resp, err := httpc.Get(metricsURL)
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			var p metricsPayload
			err = json.NewDecoder(resp.Body).Decode(&p)
			resp.Body.Close()
			if err != nil {
				t.Errorf("scrape decode: %v", err)
				return
			}
			if prev := lastOps.Load(); p.Ops < prev {
				t.Errorf("streamed ops went backwards: %d -> %d", prev, p.Ops)
				return
			}
			lastOps.Store(p.Ops)
			scrapes.Add(1)
		}
	}()

	wg.Wait()
	close(scrapeStop)
	<-scrapeDone
	tr.CloseIdleConnections()

	if got := sent.Load(); int(got) != total {
		t.Fatalf("clients completed %d/%d requests", got, total)
	}
	if n := errResponses.Load(); n != 0 {
		t.Fatalf("%d ERR responses in soak traffic", n)
	}
	if scrapes.Load() == 0 {
		t.Fatal("scraper never completed a mid-run /metrics read")
	}

	kvStats, setStats := srv.Engine().PoolStats()
	shutdown(t, srv)

	// Every request ticks the stream exactly once; Shutdown flushes the
	// live windows, so the cumulative totals must account for all of them.
	if h, _ := srv.Stream().Cumulative(); int(h.Count()) != total {
		t.Errorf("streamed ops = %d, want %d", h.Count(), total)
	}
	sum := srv.Summarize()
	if int(sum.Requests) != total {
		t.Errorf("Summary.Requests = %d, want %d", sum.Requests, total)
	}
	if sum.P99NS == 0 || sum.MaxNS == 0 {
		t.Errorf("degenerate latency summary: %+v", sum)
	}

	// Reclaim audit: with immediate reclamation over a keyRange-bounded
	// working set, the pools' peak footprint must be proportional to the
	// key range, not to the millions of inserts served.
	if kvStats.Freed == 0 || setStats.Freed == 0 {
		t.Errorf("soak never exercised reclamation: kv=%+v set=%+v", kvStats, setStats)
	}
	const lineBound = 16 * keyRange
	if kvStats.HighWaterLines > lineBound {
		t.Errorf("kv pool high water %d lines exceeds %d: %+v", kvStats.HighWaterLines, lineBound, kvStats)
	}
	if setStats.HighWaterLines > 4*lineBound {
		t.Errorf("set pool high water %d lines exceeds %d: %+v", setStats.HighWaterLines, 4*lineBound, setStats)
	}
	t.Logf("soak: %d requests, %d scrapes, kv high water %d lines (freed %d), set high water %d lines (freed %d), p99=%.0fns",
		total, scrapes.Load(), kvStats.HighWaterLines, kvStats.Freed, setStats.HighWaterLines, setStats.Freed, sum.P99NS)

	// Leak audit: everything the server and clients spawned must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		g := runtime.NumGoroutine()
		fds, ok := countFDs(t)
		if !fdOK {
			ok = false
		}
		if g <= baseGoroutines+1 && (!ok || fds <= baseFDs+1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after shutdown: goroutines %d (base %d), fds %d (base %d)",
				g, baseGoroutines, fds, baseFDs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServeSoak(t *testing.T) {
	total := 1_000_000
	if testing.Short() {
		total = 150_000
	}
	runServeSoak(t, total)
}
