package serve

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// counters is the one snapshot of the server's cumulative state that every
// rendering — /metrics JSON, the Prometheus exposition, a dump's stats.json
// and the final Summary — is built from. Every source is an atomic or a
// seqRing read, so it is valid at any instant; nothing here touches the
// quiescence-only telemetry.Set. Ops, Fails and the latency histogram are
// one Stream.Cumulative read. A line read is refused (Errors) or executed
// and ticked (Ops) before its reply, so Requests is their sum. The exported
// fields are the JSON the documents share; the rest each names its own way.
type counters struct {
	UptimeNS      int64  `json:"uptime_ns"`
	Workers       int    `json:"workers"`
	Requests      uint64 `json:"requests"`
	Errors        uint64 `json:"errors"`
	ConnsAccepted uint64 `json:"conns_accepted"`
	Ops           uint64 `json:"ops"`
	Fails         uint64 `json:"fails"`
	SpansRecorded uint64 `json:"spans_recorded"`
	SpansKept     uint64 `json:"spans_kept"`

	connsActive int64
	dumps       uint64
	engine      EngineStats
	exemplars   []DumpExemplar // each worker's most recent tail-sampled span
	lat         telemetry.Histogram
}

func (s *Server) counters() counters {
	c := counters{
		UptimeNS:      int64(time.Since(s.start)),
		Workers:       len(s.eng.workers),
		Errors:        s.errors.Load(),
		ConnsAccepted: s.accepted.Load(),
		connsActive:   s.active.Load(),
		dumps:         s.dumps.Load(),
		engine:        s.eng.Stats(),
	}
	c.lat, c.Fails = s.stream.Cumulative()
	c.Ops = c.lat.Count()
	c.Requests = c.Ops + c.Errors
	if s.flight != nil {
		c.SpansRecorded, c.SpansKept = s.flight.Totals()
		for i := 0; i < s.flight.NumCores(); i++ {
			if id, lat, ok := s.flight.Exemplar(i); ok {
				c.exemplars = append(c.exemplars, DumpExemplar{
					Worker: i, TraceID: traceID(id), LatencyNS: lat,
				})
			}
		}
	}
	return c
}

// windowsBlock is the time-resolved part of a document: the telemetry
// windows merged across workers. It is all of windows.json and the tail of
// the /metrics JSON.
type windowsBlock struct {
	WindowNS      uint64                   `json:"window_ns"`
	StreamRetries int                      `json:"stream_retries"`
	Windows       []telemetry.StreamWindow `json:"windows"`
}

func (s *Server) windows() windowsBlock {
	windows, retries := s.stream.ReadMergedWindows()
	return windowsBlock{WindowNS: s.stream.Every(), StreamRetries: retries, Windows: windows}
}

// metricsPayload is the /metrics JSON document: the counters plus the
// windows. Scrapes run mid-traffic.
type metricsPayload struct {
	counters
	ConnsActive int64  `json:"conns_active"`
	FlightDumps uint64 `json:"flight_dumps"`
	windowsBlock
}

func (s *Server) metricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	// Go runtime defaults (memstats, cmdline) — a private mux rather than
	// expvar.Publish keeps multiple in-process servers (tests) from
	// fighting over the global registry.
	mux.Handle("/debug/vars", expvar.Handler())
	if s.cfg.Pprof {
		// Profiling surface, opt-in only: with Pprof off these paths 404
		// (and a test pins that absence).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// serveMetrics negotiates the exposition: Prometheus text when asked for
// (Accept: text/plain / openmetrics, or ?format=prometheus), the original
// JSON document otherwise — existing JSON consumers see no change.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		s.servePrometheus(w)
		return
	}
	c := s.counters()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&metricsPayload{
		counters: c, ConnsActive: c.connsActive, FlightDumps: c.dumps, windowsBlock: s.windows(),
	})
}

func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}

// promSeries is one scalar series of the Prometheus exposition. The series
// set is fixed, so — as in the tagset RFC's hot set — everything about a
// series but its value is rendered once, not per scrape.
type promSeries struct {
	head string // "# HELP …\n# TYPE …\n<name> "
	get  func(*counters) float64
}

func series(name, help, typ string, get func(*counters) float64) promSeries {
	return promSeries{"# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n" + name + " ", get}
}

// promTable is the exposition's scalar series in output order;
// promFlightTable continues it while the flight recorder is armed.
var promTable = []promSeries{
	series("memtag_uptime_seconds", "Seconds since the server started.", "gauge",
		func(c *counters) float64 { return time.Duration(c.UptimeNS).Seconds() }),
	series("memtag_workers", "Engine worker count.", "gauge",
		func(c *counters) float64 { return float64(c.Workers) }),
	series("memtag_requests_total", "Request lines read: ops executed plus lines refused at decode.", "counter",
		func(c *counters) float64 { return float64(c.Requests) }),
	series("memtag_errors_total", "Request lines refused at decode; ERR replies of executed ops are not counted.", "counter",
		func(c *counters) float64 { return float64(c.Errors) }),
	series("memtag_conns_accepted_total", "Connections accepted.", "counter",
		func(c *counters) float64 { return float64(c.ConnsAccepted) }),
	series("memtag_conns_active", "Connections currently open.", "gauge",
		func(c *counters) float64 { return float64(c.connsActive) }),
	series("memtag_ops_total", "Backend operations completed.", "counter",
		func(c *counters) float64 { return float64(c.Ops) }),
	series("memtag_fails_total", "Backend validation/commit failures burned.", "counter",
		func(c *counters) float64 { return float64(c.Fails) }),
	series("memtag_stm_commits_total", "STM transactions committed (both TMs).", "counter",
		func(c *counters) float64 { return float64(c.engine.KV.Commits + c.engine.Res.Commits) }),
	series("memtag_stm_aborts_total", "STM attempt aborts (both TMs).", "counter",
		func(c *counters) float64 { return float64(c.engine.KV.Aborts + c.engine.Res.Aborts) }),
	series("memtag_stm_tag_aborts_total", "STM aborts from failed tag validation.", "counter",
		func(c *counters) float64 { return float64(c.engine.KV.TagAborts + c.engine.Res.TagAborts) }),
	series("memtag_tag_overflows_total", "Tag-set overflows (attempts degraded to value-based mode).", "counter",
		func(c *counters) float64 { return float64(c.engine.TagOverflows) }),
	series("memtag_tag_evictions_total", "Tagged lines evicted under readers.", "counter",
		func(c *counters) float64 { return float64(c.engine.TagEvictions) }),
}

var promFlightTable = []promSeries{
	series("memtag_spans_recorded_total", "Request spans published into the flight recorder.", "counter",
		func(c *counters) float64 { return float64(c.SpansRecorded) }),
	series("memtag_spans_kept_total", "Request spans tail-sampled (latency/retries/overflow/error).", "counter",
		func(c *counters) float64 { return float64(c.SpansKept) }),
	series("memtag_flight_dumps_total", "Post-mortem flight-recorder bundles written.", "counter",
		func(c *counters) float64 { return float64(c.dumps) }),
}

// The request-latency histogram's fixed text: its header and one
// `name_bucket{le="…"} ` prefix per telemetry bucket (power-of-two buckets,
// le = 2^b - 1 inclusive upper bounds).
const (
	promHist     = "memtag_request_duration_ns"
	promHistHead = "# HELP " + promHist + " Request service time (host ns), power-of-two buckets.\n" +
		"# TYPE " + promHist + " histogram\n"
)

var promHistBuckets = func() (le [telemetry.NumBuckets]string) {
	for i := range le {
		le[i] = promHist + `_bucket{le="` + strconv.FormatUint(telemetry.BucketUpper(i), 10) + `"} `
	}
	return le
}()

// servePrometheus writes the Prometheus text exposition: cumulative
// counters (every source monotonic atomics, so successive scrapes never
// regress), the request-latency histogram from the same Stream.Cumulative
// read as memtag_ops_total, and — when the flight recorder is armed —
// OpenMetrics-style exemplars on the buckets holding each worker's most
// recent tail-sampled span, carrying that request's trace ID. That ID is
// the join key into a flight-recorder dump's trace.json.
func (s *Server) servePrometheus(w http.ResponseWriter) {
	c := s.counters()
	b := make([]byte, 0, 8<<10)
	tables := [2][]promSeries{promTable}
	if s.flight != nil {
		tables[1] = promFlightTable
	}
	for _, table := range tables {
		for _, ps := range table {
			// 'f' renders a counter below 2^53 digit for digit.
			b = strconv.AppendFloat(append(b, ps.head...), ps.get(&c), 'f', -1, 64)
			b = append(b, '\n')
		}
	}

	// One exemplar per bucket: when several workers' exemplars share a
	// bucket the slowest wins.
	var ex [telemetry.NumBuckets]*DumpExemplar
	for i := range c.exemplars {
		e := &c.exemplars[i]
		if cur := &ex[telemetry.BucketIndex(e.LatencyNS)]; *cur == nil || e.LatencyNS > (*cur).LatencyNS {
			*cur = e
		}
	}
	b = append(b, promHistHead...)
	var cum uint64
	for i := range promHistBuckets {
		cum += c.lat.Bucket(i)
		b = strconv.AppendUint(append(b, promHistBuckets[i]...), cum, 10)
		if e := ex[i]; e != nil {
			b = strconv.AppendUint(append(b, ` # {trace_id="`+e.TraceID+`"} `...), e.LatencyNS, 10)
		}
		b = append(b, '\n')
	}
	b = strconv.AppendUint(append(b, promHist+`_bucket{le="+Inf"} `...), c.lat.Count(), 10)
	b = strconv.AppendUint(append(b, "\n"+promHist+"_sum "...), c.lat.Sum(), 10)
	b = strconv.AppendUint(append(b, "\n"+promHist+"_count "...), c.lat.Count(), 10)
	b = append(b, '\n')

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b)
}
