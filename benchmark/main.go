// Command benchmark is the repository's gateable benchmark: five workloads
// (three against an in-process memtag-serve over loopback TCP, two on the
// simulated MemTags machine), six end-to-end metrics every workload emits,
// and an outside-in layer ladder measured by timing and counting calls into
// each layer's public functions. BENCHMARK.json at the repository root
// describes it; README.md here explains every number.
//
//	go run ./benchmark                         all workloads, end to end
//	go run ./benchmark -workload kv-rtt        one workload
//	go run ./benchmark -workload kv-rtt -trace 1 -trace-file t.json
//	go run ./benchmark -agree                  two sets of runs per seed must agree
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero when any correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

const (
	defaultSeed  int64 = 1
	heldBackSeed int64 = 20200715 // used only by -agree, never while tuning
	defaultSecs        = 18
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all five in turn)")
		seed      = flag.Int64("seed", defaultSeed, "seed for every generator: key draws, op mix, segment seeds")
		seconds   = flag.Float64("seconds", defaultSecs, "host seconds of measured segments per workload")
		trace     = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = end-to-end run")
		traceFile = flag.String("trace-file", "", "with -trace 1: write the spans here as Chrome trace-event JSON")
		agree     = flag.Bool("agree", false, "run two interleaved sets of suite passes per seed (default and held-back) and fail on disagreement")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s; served traffic crosses loopback TCP, %d connections, closed loop\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, servedConns)

	if *agree {
		if !runAgree(*seconds, os.Stdout) {
			os.Exit(1)
		}
		return
	}
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workloadDef{*w}
	}
	ok := true
	for i := range todo {
		var res *result
		if *trace == 1 {
			res = runTraced(&todo[i], *seed, *seconds, 1, *traceFile, os.Stdout)
		} else {
			res = runEndToEnd(&todo[i], *seed, *seconds, 1, os.Stdout)
		}
		if res.err != nil {
			fmt.Printf("%s: FAILED: %v\n", todo[i].name, res.err)
		}
		ok = ok && res.correct()
		printResultLine(os.Stdout, res)
	}
	if !ok {
		os.Exit(1)
	}
}

// printResultLine writes the machine-readable result of one run.
func printResultLine(w io.Writer, res *result) {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, res.report.jsonMetrics()})
	if err != nil {
		panic(err) // only finite floats and strings go in
	}
	fmt.Fprintf(w, "%s\n", line)
}
