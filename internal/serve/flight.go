package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
)

// FlightConfig arms request-scoped tracing and the black-box flight
// recorder on the served path. With Spans off everything here is inert and
// the hot path is byte-for-byte the untraced one.
type FlightConfig struct {
	// Spans turns on per-request span recording: alloc-free, always-on
	// once armed, published into a per-worker flight ring.
	Spans bool

	// TailLatency is the tail-sampling latency threshold — spans at least
	// this slow are marked kept. 0 means the 1ms default; negative
	// disables the latency criterion.
	TailLatency time.Duration
	// TailAttempts marks spans that burned at least this many STM
	// attempts. 0 means the default of 4; negative disables.
	TailAttempts int

	// Depth is the per-worker flight-ring capacity in spans (default 256).
	Depth int

	// SLOP99 arms the auto-dump: when a merged telemetry window's p99
	// exceeds this budget for SLOWindows consecutive non-empty windows,
	// the server writes a post-mortem bundle to DumpDir. 0 disables the
	// monitor (manual TriggerDump still works).
	SLOP99 time.Duration
	// SLOWindows is the consecutive breached-window count that triggers
	// the auto-dump (default 3).
	SLOWindows int

	// DumpDir receives the post-mortem bundle — trace.json (request spans
	// as Perfetto trace events), windows.json (merged telemetry windows),
	// stats.json (engine counters + dump reason + exemplars). Default
	// "flight-dump".
	DumpDir string
}

func (c *FlightConfig) setDefaults() {
	if c.TailLatency == 0 {
		c.TailLatency = time.Millisecond
	}
	if c.TailAttempts == 0 {
		c.TailAttempts = 4
	}
	if c.Depth <= 0 {
		c.Depth = 256
	}
	if c.SLOWindows <= 0 {
		c.SLOWindows = 3
	}
	if c.DumpDir == "" {
		c.DumpDir = "flight-dump"
	}
}

// tailPolicy renders the config into the recorder's sampling policy.
func (c *FlightConfig) tailPolicy() telemetry.TailPolicy {
	var p telemetry.TailPolicy
	if c.TailLatency > 0 {
		p.LatencyNS = uint64(c.TailLatency.Nanoseconds())
	}
	if c.TailAttempts > 0 {
		p.Attempts = uint32(c.TailAttempts)
	}
	return p
}

// autoDumpMinGap spaces monitor-triggered dumps so a sustained breach does
// not rewrite the bundle every window.
const autoDumpMinGap = 5 * time.Second

// sloMonitor watches the merged telemetry windows and triggers a
// post-mortem dump after SLOWindows consecutive non-empty windows whose
// p99 exceeds the SLOP99 budget.
func (s *Server) sloMonitor() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.StreamEvery)
	defer t.Stop()
	budget := float64(s.cfg.Flight.SLOP99.Nanoseconds())
	streak := 0
	var lastSeen uint64
	seen := false
	var lastDump time.Time
	for {
		select {
		case <-s.monStop:
			return
		case <-t.C:
		}
		windows, _ := s.stream.ReadMergedWindows()
		for i := range windows {
			w := &windows[i]
			if w.Ops == 0 || (seen && w.Start <= lastSeen) {
				continue
			}
			seen, lastSeen = true, w.Start
			if w.P99 > budget {
				streak++
			} else {
				streak = 0
			}
			if streak >= s.cfg.Flight.SLOWindows {
				streak = 0
				if lastDump.IsZero() || time.Since(lastDump) >= autoDumpMinGap {
					lastDump = time.Now()
					s.TriggerDump("slo-breach")
				}
			}
		}
	}
}

// DumpExemplar links one worker's most recent tail-sampled span into the
// dump: its request/trace ID (the span ID, also the Prometheus exemplar)
// and end-to-end latency.
type DumpExemplar struct {
	Worker    int    `json:"worker"`
	TraceID   string `json:"trace_id"`
	LatencyNS uint64 `json:"latency_ns"`
}

// DumpStats is the stats.json document of a post-mortem bundle.
type DumpStats struct {
	Reason string `json:"reason"`
	counters
	Dumps            uint64         `json:"dumps"`
	Engine           EngineStats    `json:"engine"`
	ReclaimViolation string         `json:"reclaim_violation,omitempty"`
	Exemplars        []DumpExemplar `json:"exemplars,omitempty"`
}

// TriggerDump writes a post-mortem bundle (trace.json, windows.json,
// stats.json) into the flight dump directory and returns that directory.
// Safe mid-run from any goroutine — the flight rings, stream rings, and
// engine counters all read under seqlocks or as atomics — and serialized
// against concurrent dumps. Errors if spans are not armed.
func (s *Server) TriggerDump(reason string) (string, error) {
	if s.flight == nil {
		return "", fmt.Errorf("serve: flight recorder not armed (Config.Flight.Spans)")
	}
	s.dumpMu.Lock()
	defer s.dumpMu.Unlock()

	dir := s.cfg.Flight.DumpDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	spans := s.flight.Snapshot()
	if err := writeFile(filepath.Join(dir, "trace.json"), func(w io.Writer) error {
		return telemetry.WriteSpanTrace(w, spans, CmdName, len(s.eng.workers))
	}); err != nil {
		return "", err
	}
	if err := writeJSONFile(filepath.Join(dir, "windows.json"), s.windows()); err != nil {
		return "", err
	}

	// stats.json counts its own bundle; Dumps() follows once the bundle is
	// whole on disk, so a caller that saw the count move can read the files.
	c := s.counters()
	st := &DumpStats{Reason: reason, counters: c, Dumps: c.dumps + 1, Engine: c.engine, Exemplars: c.exemplars}
	if msg := s.vioMsg.Load(); msg != nil {
		st.ReclaimViolation = *msg
	}
	if err := writeJSONFile(filepath.Join(dir, "stats.json"), st); err != nil {
		return "", err
	}
	s.dumps.Add(1)
	return dir, nil
}

// traceID renders a span/request ID the way the Prometheus exemplars do,
// so the dump and the exposition join on the same string.
func traceID(id uint64) string { return fmt.Sprintf("%016x", id) }

func writeJSONFile(path string, v any) error {
	return writeFile(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
}

// writeFile creates path, fills it with write, and reports the first error
// of the three steps, Close included.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
