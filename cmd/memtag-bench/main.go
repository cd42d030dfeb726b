// Command memtag-bench regenerates the paper's evaluation figures
// (Section 6) on the machine simulator and prints each figure's series as
// a table: throughput, L1 miss rate and energy versus thread count for
// every data-structure variant.
//
// Usage:
//
//	memtag-bench -fig all            # every figure, quick scale
//	memtag-bench -fig 6 -full       # Figure 6 at paper scale (1-64 cores)
//	memtag-bench -fig 2 -threads 1,2,4,8,16 -ops 1000 -trials 3
//	memtag-bench -fig all -parallel 0 -json .   # fan cells over host CPUs,
//	                                            # write BENCH_fig*.json
//	memtag-bench -fig 6 -telemetry              # + latency quantiles per cell
//	memtag-bench -fig numa -cores 64,256 -sockets 4 -dist hotset -json .
//	                                            # beyond-the-paper NUMA sweep
//	memtag-bench -fig 2 -trace-out trace.json   # Perfetto trace of one cell
//	memtag-bench -fig 6 -cpuprofile cpu.pb.gz   # profile the run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

var (
	fig         = flag.String("fig", "all", "figure to run: 2, 4, 5, 6, 7, 8, skip, bst, chromatic, stmset, elision, reclaim, numa, or all")
	full        = flag.Bool("full", false, "paper scale (1-64 simulated cores, more ops, 3 trials; numa adds 512 cores)")
	threads     = flag.String("threads", "", "override thread counts, e.g. 1,2,4,8 (-fig elision runs the largest)")
	coresFlag   = flag.String("cores", "", "override the -fig numa core counts, e.g. 64,128,256,512")
	sockets     = flag.Int("sockets", 0, "override the -fig numa socket count (0: one socket per 64 cores)")
	dist        = flag.String("dist", "uniform", "key distribution for -fig numa: uniform, zipfian or hotset")
	ops         = flag.Int("ops", 0, "override operations per thread")
	trials      = flag.Int("trials", 0, "override trial count")
	parallel    = flag.Int("parallel", 1, "host workers for experiment cells: 1 serial, 0 one per host CPU, N a fixed pool (results identical for any value)")
	jsonDir     = flag.String("json", "", "directory to write BENCH_<name>.json result files into (empty: no JSON)")
	telemetryOn = flag.Bool("telemetry", false, "record per-op latency/retry histograms and sampler windows (adds latency rows to tables and op_lat_*/windows fields to JSON)")
	sampleEvery = flag.Uint64("sample-every", 0, "telemetry sampler interval in backend clock units (0: harness default)")
	traceOut    = flag.String("trace-out", "", "write a Perfetto trace-event JSON of one cell (last variant, largest thread count) to this file; use with a single -fig")
	cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
)

// workers is the resolved -parallel value.
var workers int

// fatalf reports a failure and exits with code.
func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "memtag-bench: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	flag.Parse()
	switch {
	case *parallel == 0:
		workers = runtime.GOMAXPROCS(0)
	case *parallel > 0:
		workers = *parallel
	default:
		fatalf(2, "bad -parallel %d", *parallel)
	}
	var numaCores []int
	if *coresFlag != "" {
		numaCores = parseThreads(*coresFlag)
	}
	numaDist, err := workload.ParseKeyDist(*dist)
	if err != nil {
		fatalf(2, "%v", err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf(1, "%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf(1, "%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	sc := harness.QuickScale()
	if *full {
		sc = harness.PaperScale()
	}
	if *threads != "" {
		sc.Threads = parseThreads(*threads)
	}
	if *ops > 0 {
		sc.OpsPerThread = *ops
	}
	if *trials > 0 {
		sc.Trials = *trials
	}

	figs := strings.Split(*fig, ",")
	if *fig == "all" {
		figs = []string{"2", "4", "5", "6", "7", "8", "skip", "bst", "chromatic", "stmset", "elision", "reclaim", "numa"}
	}
	for _, f := range figs {
		run(strings.TrimSpace(f), sc, numaCores, numaDist)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf(1, "%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf(1, "%v", err)
		}
		f.Close()
	}
}

func parseThreads(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 || n > core.MaxCores {
			fatalf(2, "bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out
}

// setFigures are the set-structure experiments by -fig name.
var setFigures = map[string]func(harness.Scale) *harness.SetExperiment{
	"2": harness.Fig2, "4": harness.Fig4, "5": harness.Fig5, "6": harness.Fig6, "7": harness.Fig7,
	"skip": harness.SkipExperiment, "reclaim": harness.ReclaimExperiment, "bst": harness.BSTExperiment,
	"stmset": harness.StmSetExperiment, "chromatic": harness.ChromaticExperiment,
}

func run(id string, sc harness.Scale, numaCores []int, numaDist workload.KeyDist) {
	switch id {
	case "8":
		e := harness.Fig8(!*full)
		e.Workers, e.Threads = workers, sc.Threads
		runFigure(e.Name+" — Figure 8", e.Name, e.Title, e.Run, e.Print)
	case "elision":
		e := harness.NewElisionExperiment(!*full)
		e.Workers = workers
		if *threads != "" {
			e.Threads = slices.Max(sc.Threads)
		}
		runFigure(e.Name+" — fallback ablation", e.Name, e.Title, e.Run, e.Print)
	case "numa":
		e := harness.NUMASweep(!*full)
		e.Workers, e.Sockets, e.Dist = workers, *sockets, numaDist
		if len(numaCores) > 0 {
			e.Cores = numaCores
		}
		if *ops > 0 {
			e.OpsPerThread = *ops
		}
		runFigure(fmt.Sprintf("%s — beyond the paper (%s keys)", e.Name, e.Dist), e.Name, e.Title, e.Run, e.Print)
	default:
		mk, ok := setFigures[id]
		if !ok {
			fatalf(2, "unknown figure %q", id)
		}
		e := mk(sc)
		e.Workers, e.Telemetry, e.SampleEvery = workers, *telemetryOn, *sampleEvery
		points := runFigure(e.Name+" — "+e.Figure, e.Name, e.Title, e.Run, e.Print)
		if *traceOut != "" {
			writeTrace(e)
		}
		// Headline comparisons at the largest thread count.
		n := e.Threads[len(e.Threads)-1]
		base := e.Variants[0].Name
		for _, v := range e.Variants[1:] {
			if s := harness.Speedup(points, v.Name, base, n); s > 0 {
				fmt.Printf("speedup %s vs %s @%d threads: %.2fx\n", v.Name, base, n, s)
			}
		}
	}
	fmt.Println()
}

// runFigure is every figure's path: heading, run, table, BENCH JSON.
func runFigure[P any](heading, name, title string, run func() []P, print func(io.Writer, []P)) []P {
	fmt.Printf("# %s\n", heading)
	start := time.Now()
	points := run()
	print(os.Stdout, points)
	writeJSON(name, title, time.Since(start), points)
	return points
}

// writeTrace re-runs one cell of the experiment — the last variant
// (conventionally the tagged one) at the largest thread count — with the
// backend tracer and per-op spans attached, and writes the Perfetto
// trace-event JSON to -trace-out.
func writeTrace(e *harness.SetExperiment) {
	variant := e.Variants[len(e.Variants)-1].Name
	threads := e.Threads[len(e.Threads)-1]
	f, err := os.Create(*traceOut)
	if err != nil {
		fatalf(1, "%v", err)
	}
	if err := e.TraceCell(variant, threads, f); err != nil {
		fatalf(1, "trace: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Printf("wrote %s (%s @%d threads; open at ui.perfetto.dev)\n", *traceOut, variant, threads)
}

// benchResult is the schema of a BENCH_<name>.json file: the experiment's
// points plus enough host metadata to compare runs across machines.
// With -telemetry each point additionally carries op_lat_p50, op_lat_p99,
// op_lat_max, retries_per_op, and windows (the sampler's time series); see
// EXPERIMENTS.md, "Observability". Pool-backed variants (-fig reclaim)
// carry retire_free_p50/p99, peak_live_lines, and freelist_lines.
type benchResult struct {
	Name        string  `json:"name"`
	Title       string  `json:"title"`
	Workers     int     `json:"workers"`
	HostCPUs    int     `json:"host_cpus"`
	HostSeconds float64 `json:"host_seconds"`
	Points      any     `json:"points"`
}

func writeJSON(name, title string, elapsed time.Duration, points any) {
	if *jsonDir == "" {
		return
	}
	out := benchResult{
		Name:        name,
		Title:       title,
		Workers:     workers,
		HostCPUs:    runtime.GOMAXPROCS(0),
		HostSeconds: elapsed.Seconds(),
		Points:      points,
	}
	path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatalf(1, "%v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Printf("wrote %s\n", path)
}
