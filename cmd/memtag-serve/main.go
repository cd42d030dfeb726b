// Command memtag-serve exposes the tagged structures as a network service:
// a KV plane (one transactional map of 32 768 red-black trees, a key's
// tree chosen by its hash), a set plane (skiplist on the versioned-tag
// backend), and a
// STAMP-vacation reservation plane, all over one ASCII line protocol.
// Streaming telemetry publishes time-resolved ops/fails/latency windows at
// /metrics while traffic runs.
//
//	memtag-serve -addr :7070 -metrics :7071 -workers 8 -tm tagged
//	memtag-serve -reclaim immediate -relations 4096
//
// SIGINT/SIGTERM drain connections gracefully and print a JSON summary
// (requests, fails, p50/p99 service time) to stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/reclaim"
	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "service listen address")
		metrics     = flag.String("metrics", "127.0.0.1:7071", "metrics HTTP listen address (empty = off)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "engine workers (backend threads)")
		memBytes    = flag.Int("mem-bytes", 1<<30, "simulated memory arena size")
		maxTags     = flag.Int("max-tags", 0, "tag-space size (0 = backend default)")
		tm          = flag.String("tm", "tagged", "transaction engine: tagged or norec")
		reclaimMode = flag.String("reclaim", "off", "reclamation: off, immediate, or epoch")
		relations   = flag.Int("relations", 1024, "vacation relations to pre-populate")
		seed        = flag.Int64("seed", 1, "populate seed")
		streamEvery = flag.Duration("stream-every", 100*time.Millisecond, "telemetry window width")
		streamDepth = flag.Int("stream-depth", 120, "telemetry windows retained per worker")
		drain       = flag.Duration("drain", 10*time.Second, "shutdown drain budget")

		spans       = flag.Bool("spans", false, "record per-request spans into the flight recorder")
		tailLatency = flag.Duration("tail-latency", time.Millisecond, "tail-sample spans at least this slow (0 = off)")
		tailRetries = flag.Int("tail-attempts", 4, "tail-sample spans burning at least this many STM attempts (0 = off)")
		flightDepth = flag.Int("flight-depth", 256, "flight-ring spans retained per worker")
		sloP99      = flag.Duration("slo-p99", 0, "p99 budget arming the auto-dump (0 = off)")
		sloWindows  = flag.Int("slo-windows", 3, "consecutive breached windows that trigger a dump")
		flightDump  = flag.String("flight-dump", "flight-dump", "post-mortem bundle directory")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof on the metrics mux")
	)
	flag.Parse()

	cfg := serve.Config{
		Addr:        *addr,
		MetricsAddr: *metrics,
		StreamEvery: *streamEvery,
		StreamDepth: *streamDepth,
		Pprof:       *pprofOn,
		Engine: serve.EngineConfig{
			Workers:   *workers,
			MemBytes:  *memBytes,
			MaxTags:   *maxTags,
			Relations: *relations,
			Seed:      *seed,
		},
	}
	if *spans {
		cfg.Flight = serve.FlightConfig{
			Spans:      true,
			Depth:      *flightDepth,
			SLOP99:     *sloP99,
			SLOWindows: *sloWindows,
			DumpDir:    *flightDump,
		}
		// Flag zero means "criterion off"; FlightConfig uses negative for
		// that (its zero value means "default").
		cfg.Flight.TailLatency = *tailLatency
		if *tailLatency == 0 {
			cfg.Flight.TailLatency = -1
		}
		cfg.Flight.TailAttempts = *tailRetries
		if *tailRetries == 0 {
			cfg.Flight.TailAttempts = -1
		}
	}
	switch *tm {
	case "tagged":
		cfg.Engine.Tagged = true
	case "norec":
	default:
		fatalf("unknown -tm %q (want tagged or norec)", *tm)
	}
	switch *reclaimMode {
	case "off":
	case "immediate":
		cfg.Engine.Reclaim = true
		cfg.Engine.ReclaimPolicy = reclaim.PolicyImmediate
	case "epoch":
		cfg.Engine.Reclaim = true
		cfg.Engine.ReclaimPolicy = reclaim.PolicyEpoch
	default:
		fatalf("unknown -reclaim %q (want off, immediate, or epoch)", *reclaimMode)
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if err := srv.Start(); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "memtag-serve: listening on %s (tm=%s reclaim=%s workers=%d)\n",
		srv.Addr(), *tm, *reclaimMode, *workers)
	if *metrics != "" {
		fmt.Fprintf(os.Stderr, "memtag-serve: metrics on http://%s/metrics\n", srv.MetricsAddr())
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGQUIT)
	var s os.Signal
	for s = <-sig; s == syscall.SIGQUIT; s = <-sig {
		// SIGQUIT is the operator's black-box pull: dump the flight
		// recorder and keep serving.
		if dir, err := srv.TriggerDump("sigquit"); err != nil {
			fmt.Fprintf(os.Stderr, "memtag-serve: flight dump: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "memtag-serve: flight dump written to %s\n", dir)
		}
	}
	fmt.Fprintf(os.Stderr, "memtag-serve: %v, draining\n", s)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "memtag-serve: shutdown: %v\n", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(srv.Summarize())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "memtag-serve: "+format+"\n", args...)
	os.Exit(2)
}
