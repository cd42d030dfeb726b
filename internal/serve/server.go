package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Config describes one server.
type Config struct {
	// Addr is the TCP data-plane listen address (e.g. "127.0.0.1:7070";
	// port 0 picks a free port).
	Addr string
	// MetricsAddr is the HTTP telemetry listen address ("" disables the
	// endpoint).
	MetricsAddr string

	Engine EngineConfig

	// StreamEvery is the streaming-telemetry window width (default
	// 100ms); StreamDepth the per-core ring capacity in windows (default
	// 120, i.e. 12s of history at the default width).
	StreamEvery time.Duration
	StreamDepth int

	// Flight arms request-scoped tracing, tail-based sampling, and the
	// post-mortem flight recorder (see FlightConfig).
	Flight FlightConfig

	// Pprof exposes net/http/pprof on the private metrics mux. Off by
	// default: the profiling surface stays absent unless asked for.
	Pprof bool
}

// Server is one running memtag-serve instance.
type Server struct {
	cfg    Config
	eng    *Engine
	stream *telemetry.Stream
	start  time.Time

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	closing  atomic.Bool
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	nextConn atomic.Uint64

	errors   atomic.Uint64 // lines refused at decode (answered with ERR)
	accepted atomic.Uint64
	active   atomic.Int64

	// Flight-recorder plane (nil/zero when Config.Flight.Spans is off).
	flight  *telemetry.FlightRecorder
	monStop chan struct{} // stops the SLO monitor
	dumpMu  sync.Mutex    // serializes post-mortem dumps
	dumps   atomic.Uint64 // bundles written
	vioMsg  atomic.Pointer[string]
	vioOnce sync.Once
}

// flushLimit bounds the per-connection output buffer before a forced
// flush, so a deeply pipelined client cannot balloon it.
const flushLimit = 64 << 10

// New builds the engine (including the vacation populate, which runs
// before any traffic) but does not listen yet.
func New(cfg Config) (*Server, error) {
	if cfg.StreamEvery <= 0 {
		cfg.StreamEvery = 100 * time.Millisecond
	}
	if cfg.StreamDepth <= 0 {
		cfg.StreamDepth = 120
	}
	cfg.Flight.setDefaults()
	eng, err := newEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		eng:    eng,
		stream: telemetry.NewStream(cfg.Engine.Workers, uint64(cfg.StreamEvery.Nanoseconds()), cfg.StreamDepth),
		conns:  map[net.Conn]struct{}{},
	}
	if cfg.Flight.Spans {
		s.flight = telemetry.NewFlightRecorder(cfg.Engine.Workers, cfg.Flight.Depth)
		if eng.dom != nil {
			// With the flight recorder armed, a checked-mode reclaim
			// violation produces a post-mortem bundle instead of the
			// domain's default panic; the violation error is retained
			// (Domain.Violation) and lands in stats.json.
			eng.dom.OnViolation(func(err error) {
				msg := err.Error()
				s.vioMsg.CompareAndSwap(nil, &msg)
				s.vioOnce.Do(func() { s.TriggerDump("reclaim-violation") })
			})
		}
	}
	return s, nil
}

// FlightRecorder exposes the span flight recorder (nil when spans are not
// armed). Safe to read at any time.
func (s *Server) FlightRecorder() *telemetry.FlightRecorder { return s.flight }

// Dumps returns the number of post-mortem bundles written so far.
func (s *Server) Dumps() uint64 { return s.dumps.Load() }

// Engine exposes the storage planes for quiescent inspection (tests, the
// final CLI summary).
func (s *Server) Engine() *Engine { return s.eng }

// Stream exposes the streaming telemetry (safe to read at any time).
func (s *Server) Stream() *telemetry.Stream { return s.stream }

// Start listens and begins serving. The returned server must be stopped
// with Shutdown.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.start = time.Now()
	if s.flight != nil {
		// Arm span recorders now that the epoch (s.start) exists; traffic
		// has not begun, so the quiescent-only observer install is safe.
		s.eng.armSpans(s.flight, s.start, s.cfg.Flight.tailPolicy())
		s.monStop = make(chan struct{})
		if s.cfg.Flight.SLOP99 > 0 {
			s.wg.Add(1)
			go s.sloMonitor()
		}
	}
	if s.cfg.MetricsAddr != "" {
		hl, err := net.Listen("tcp", s.cfg.MetricsAddr)
		if err != nil {
			ln.Close()
			return err
		}
		s.httpLn = hl
		s.httpSrv = &http.Server{Handler: s.metricsMux()}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.httpSrv.Serve(hl); err != nil && !errors.Is(err, http.ErrServerClosed) {
				// Shutdown closes the listener; anything else is fatal to
				// the metrics plane only.
				_ = err
			}
		}()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the data-plane address (valid after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// MetricsAddr returns the HTTP address, or nil when disabled.
func (s *Server) MetricsAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		if s.closing.Load() {
			conn.Close()
			continue
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.active.Add(1)
		id := s.nextConn.Add(1) - 1
		w := s.eng.workers[int(id)%len(s.eng.workers)]
		s.wg.Add(1)
		go s.handleConn(conn, w, id)
	}
}

// handleConn serves one connection bound to one worker. Responses to
// pipelined requests are batched: the output buffer flushes when no more
// input is buffered or when it crosses flushLimit.
//
// connID is the accept-time connection sequence number; with spans armed
// it seeds the request IDs: connID in the top 24 bits, a per-connection
// sequence in the low 28 — 52 bits total, so the ID survives a float64
// round-trip through JSON tooling.
func (s *Server) handleConn(conn net.Conn, w *Worker, connID uint64) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.active.Add(-1)
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 32<<10)
	out := make([]byte, 0, 16<<10)
	armed := s.flight != nil
	spanBase := (connID & 0xFFFFFF) << 28
	var reqSeq uint64
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			// EOF, read deadline (shutdown), oversized line: flush what we
			// owe and drop the connection.
			if len(out) > 0 {
				conn.Write(out)
			}
			return
		}
		var tRead, tParse uint64
		if armed {
			tRead = uint64(time.Since(s.start))
		}
		req, perr := ParseRequest(line)
		if armed {
			tParse = uint64(time.Since(s.start))
		}
		reqID := spanBase | (reqSeq & (1<<28 - 1))
		reqSeq++
		if perr != nil {
			s.errors.Add(1)
			out = appendErr(out, perr)
			if armed {
				// A parse failure still gets a span (op 0): errored
				// requests are always tail-kept.
				w.mu.Lock()
				w.sr.Begin(reqID, 0, tRead, tParse-tRead, 0, 0)
				w.sr.End(uint64(time.Since(s.start)), true)
				w.mu.Unlock()
			}
		} else {
			t0 := time.Since(s.start)
			w.mu.Lock()
			var f0, tick uint64
			if w.oc != nil {
				tick, f0 = w.oc.OpClock()
			}
			if armed {
				tLock := uint64(time.Since(s.start))
				w.sr.Begin(reqID, req.Op, tRead, tParse-tRead, tLock-tParse, tick)
			}
			errStart := len(out)
			out = w.Exec(&req, out)
			var fails uint64
			if w.oc != nil {
				_, f1 := w.oc.OpClock()
				fails = f1 - f0
			}
			t1 := time.Since(s.start)
			d := uint64(t1 - t0)
			if armed {
				errResp := len(out) > errStart && out[errStart] == 'E'
				w.sr.End(uint64(t1), errResp)
			}
			s.stream.Tick(w.id, uint64(t1), d, fails)
			w.mu.Unlock()
		}
		if br.Buffered() == 0 || len(out) >= flushLimit {
			if _, err := conn.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	}
}

// Shutdown stops accepting, unblocks every connection's pending read (so
// in-flight pipelined batches finish and flush), and waits for all
// connection goroutines and the HTTP plane to drain. After it returns the
// engine is quiescent: final telemetry windows are flushed and
// CheckTables/PoolStats are safe.
func (s *Server) Shutdown(ctx context.Context) error {
	if first := !s.closing.Swap(true); first && s.monStop != nil {
		close(s.monStop)
	}
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if s.httpSrv != nil {
		s.httpSrv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown timed out: %w", ctx.Err())
	}
	// Quiescent now: publish the partial tail windows.
	for _, w := range s.eng.workers {
		s.stream.Flush(w.id)
	}
	return nil
}

// Summary is the end-of-run report memtag-serve prints at exit.
type Summary struct {
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	Accepted uint64  `json:"conns_accepted"`
	Ops      uint64  `json:"ops"`
	Fails    uint64  `json:"fails"`
	P50NS    float64 `json:"p50_ns"`
	P99NS    float64 `json:"p99_ns"`
	MaxNS    uint64  `json:"max_ns"`
}

// Summarize reports the counters and the service-time quantiles of the
// stream's cumulative histogram, from one read of it. Safe at any time.
func (s *Server) Summarize() Summary {
	c := s.counters()
	return Summary{
		Requests: c.Requests,
		Errors:   c.Errors,
		Accepted: c.ConnsAccepted,
		Ops:      c.Ops,
		Fails:    c.Fails,
		P50NS:    c.lat.Quantile(0.50),
		P99NS:    c.lat.Quantile(0.99),
		MaxNS:    c.lat.Max(),
	}
}
