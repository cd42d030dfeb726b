package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workload"
)

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestTablesMatchBenchmarkJSON fails when the program's metric and workload
// tables and BENCHMARK.json drift apart.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds != defaultSecs {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSecs)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: JSON has %q / %q, program has %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Fatalf("%s: %d metrics in JSON, %d in the program", kind, len(js), len(defs))
		}
		for i, d := range defs {
			j := js[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s[%d]: JSON has %+v, program has %+v", kind, i, j, d)
			}
			switch {
			case bounded && (j.Bound == nil || *j.Bound != d.Bound):
				t.Errorf("%s %s: bound differs from the program's %v", kind, d.Name, d.Bound)
			case !bounded && j.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.Name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
}

// resultLine parses what printResultLine wrote.
func resultLine(t *testing.T, res *result) map[string]metricValue {
	t.Helper()
	var buf bytes.Buffer
	printResultLine(&buf, res)
	var line struct {
		Correct   *bool                  `json:"correct"`
		Attempted *uint64                `json:"attempted"`
		Failed    *uint64                `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || !*line.Correct || *line.Attempted < 1 || *line.Failed != 0 {
		t.Fatalf("result line does not report a correct run: %s", buf.String())
	}
	return line.Metrics
}

// TestSmokeAllWorkloads runs every workload at 1/100 scale, end to end and
// traced, and checks that each run is correct and emits every metric
// BENCHMARK.json names exactly once with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	b := loadBenchmarkJSON(t)
	const scale = 100
	for _, w := range workloads {
		w.setups = 1
		t.Run(w.name, func(t *testing.T) {
			res := runEndToEnd(&w, defaultSeed, 0.05, scale, io.Discard)
			if !res.correct() {
				t.Fatalf("end-to-end run incorrect: %d of %d failed, err %v", res.failed, res.attempted, res.err)
			}
			for i, d := range endToEnd {
				if !res.report.have[i] {
					t.Fatalf("end-to-end metric %s never set", d.Name)
				}
			}
			got := resultLine(t, res)
			if len(got) != len(b.EndToEnd) {
				t.Errorf("emitted %d end-to-end metrics, BENCHMARK.json names %d", len(got), len(b.EndToEnd))
			}
			for _, j := range b.EndToEnd {
				v, ok := got[j.Name]
				if !ok || v.Unit != j.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", j.Name, v, ok, j.Unit)
				}
			}

			trace := filepath.Join(t.TempDir(), "trace.json")
			res = runTraced(&w, defaultSeed, 0.05, scale, trace, io.Discard)
			if !res.correct() {
				t.Fatalf("traced run incorrect: %d of %d failed, err %v", res.failed, res.attempted, res.err)
			}
			got = resultLine(t, res)
			if len(got) != len(b.PerLayer) {
				t.Errorf("emitted %d per-layer metrics, BENCHMARK.json names %d", len(got), len(b.PerLayer))
			}
			for _, j := range b.PerLayer {
				v, ok := got[j.Name]
				if !ok || v.Unit != j.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer %s: got %+v (present %v), want a finite value in %s", j.Name, v, ok, j.Unit)
				}
			}
			// The layers this workload exercises must have been measured,
			// not defaulted to 0.
			want := []string{"machine.cycles_per_op", "machine.cyc_share.other", "sim.speedup", "cachemodel.access_ns"}
			if w.clock == "host" {
				want = []string{"serve.service_mean_ns", "serve.ping_req_per_s", "stm.tagged_over_norec", "txmap.get_ns", "vtags.est_ns_per_req", "telemetry.tick_ns"}
			}
			for _, name := range want {
				if !(got[name].Value > 0) {
					t.Errorf("per-layer %s = %v, want it measured", name, got[name].Value)
				}
			}
			checkTraceFile(t, trace)
		})
	}
}

// checkTraceFile applies bench/tracecheck's rules that concern ph=X files:
// named tracks, non-negative durations, non-decreasing ts per track.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Tid  int      `json:"tid"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	last := map[int]float64{}
	spans := 0
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		if ev.Ph != "X" {
			continue
		}
		spans++
		if ev.Ts == nil || ev.Dur == nil || *ev.Ts < 0 || *ev.Dur < 0 || *ev.Ts < last[ev.Tid] {
			t.Fatalf("event %d (%s): bad ts/dur or ts goes backwards on tid %d", i, ev.Name, ev.Tid)
		}
		last[ev.Tid] = *ev.Ts
	}
	if spans == 0 {
		t.Fatal("trace file holds no spans")
	}
}

// TestSeedDeterminism: the same seed yields a byte-identical request
// stream, a different seed does not — for every generator the workloads use.
func TestSeedDeterminism(t *testing.T) {
	encode := func(tr *traffic, seed int64) []byte {
		reqs := make([]serve.Request, 5000)
		tr.fill(reqs, seed)
		var out []byte
		for i := range reqs {
			out = serve.AppendRequest(out, &reqs[i])
		}
		return out
	}
	for _, tc := range []struct {
		name string
		dist workload.KeyDist
		mix  []mixEntry
	}{{"uniform-kv", workload.DistUniform, kvMix}, {"zipfian-mixed", workload.DistZipfian, mixedMix}} {
		a := newTraffic(servedKeyRange, servedRelations, tc.dist, tc.mix)
		b := newTraffic(servedKeyRange, servedRelations, tc.dist, tc.mix)
		s1, s2 := subSeed(defaultSeed, 3, 1), subSeed(heldBackSeed, 3, 1)
		if !bytes.Equal(encode(a, s1), encode(b, s1)) {
			t.Errorf("%s: same seed, different streams", tc.name)
		}
		if bytes.Equal(encode(a, s1), encode(a, s2)) {
			t.Errorf("%s: different seeds, same stream", tc.name)
		}
	}
	if subSeed(1, 0, 1) == subSeed(1, 1, 0) || subSeed(1, 2) == subSeed(2, 2) {
		t.Error("subSeed collides on neighbouring positions")
	}
}

// TestPercentile checks the helper against the definition on a sorted
// oracle: the smallest sample with at least q of the sample at or below it.
func TestPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(50) // duplicates on purpose
		}
		slices.Sort(v)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99, 0.999, 1} {
			want := v[n-1]
			for _, x := range v {
				atOrBelow := sort.Search(n, func(i int) bool { return v[i] > x })
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got := percentile(v, q); got != float64(want) {
				t.Errorf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestSelfTimes: a span's self time is its duration minus its children's.
func TestSelfTimes(t *testing.T) {
	tr := &track{spans: make([]span, 0, 8)}
	tr.add("parse", 0, 30, 1)
	tr.add("exec", 30, 70, 1)
	tr.add("request", 0, 100, 1)
	tr.add("request", 100, 150, 2)
	st := tr.selfTimes()
	if st["request"] != [2]int64{150, 80} || st["exec"] != [2]int64{40, 40} {
		t.Errorf("selfTimes = %v", st)
	}
}

// TestCountingWrapperTransparent: the counting core.Memory changes nothing —
// the same deterministic single-thread stream leaves the same replies and,
// word for word, the same memory as raw vtags — and it does count.
func TestCountingWrapperTransparent(t *testing.T) {
	tr := newTraffic(4096, 64, workload.DistZipfian, mixedMix)
	n := 20000
	if testing.Short() {
		n = 4000 // the race lane runs -short; this is ~100x slower there
	}
	reqs := make([]serve.Request, n)
	tr.fill(reqs, 11)
	cfg := mixedEngine()
	cfg.Relations, cfg.Seed = 64, 11
	raw, counted := newReplica(cfg, true, false), newReplica(cfg, true, true)
	for i := range reqs {
		raw.exec(&reqs[i])
		counted.exec(&reqs[i])
		if raw.ok != counted.ok || raw.out != counted.out {
			t.Fatalf("request %d (%s %d): raw replied (%v, %d), counted (%v, %d)", i,
				serve.CmdName(reqs[i].Op), reqs[i].A, raw.ok, raw.out, counted.ok, counted.out)
		}
	}
	end := raw.raw.Alloc(1)
	if other := counted.raw.Alloc(1); other != end {
		t.Fatalf("allocation cursors differ: %d vs %d", end, other)
	}
	a, b := raw.raw.Thread(0), counted.raw.Thread(0)
	for addr := core.Addr(0); addr < end; addr += core.WordSize {
		if x, y := a.Load(addr), b.Load(addr); x != y {
			t.Fatalf("word at %d differs: raw %d, counted %d", addr, x, y)
		}
	}
	c := counted.cm.threads[0].n
	if c.loads == 0 || c.stores == 0 || c.addTags == 0 || c.validates == 0 || c.vas+c.ias == 0 {
		t.Errorf("counting wrapper counted nothing: %+v", c)
	}
}
