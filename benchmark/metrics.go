package main

import (
	"fmt"
	"io"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// The tables below are the program's copy of that file; a test compares the
// two so code and JSON cannot drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd is what a user of either population sees. Every workload emits
// every one of them, in the workload's own clock: host time for the served
// workloads, simulated time for the sim-* workloads' ops_per_s and
// op_p*_us (simulated cycles ÷ the configured clock). setup_s, cpu_us_per_op
// and live_heap_mb are host-side on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.20},
	{"op_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// perLayer lists the single-layer metrics of the traced run; the prefix is
// the module measured. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	// Whole-run numbers that only some workloads have.
	{"fail_share", "share", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"sim.mops", "Mops/s", "higher", 0},
	{"sim.ktx", "ktx/s", "higher", 0},
	{"sim.speedup", "ratio", "higher", 0},
	{"sim.p99_cycles", "cycles", "lower", 0},
	{"sim.host_ops_per_s", "1/s", "higher", 0},

	{"serve.service_mean_ns", "ns", "lower", 0},
	{"serve.service_p50_ns", "ns", "lower", 0},
	{"serve.service_p99_ns", "ns", "lower", 0},
	{"serve.wire_share", "share", "lower", 0},
	{"serve.ping_req_per_s", "1/s", "higher", 0},
	{"serve.parallel_req_per_s", "1/s", "higher", 0},
	{"serve.parallel_speedup", "ratio", "higher", 0},
	{"serve.parallel_service_mean_ns", "ns", "lower", 0},
	{"serve.parse_req_ns", "ns", "lower", 0},
	{"serve.append_req_ns", "ns", "lower", 0},
	{"serve.parse_resp_ns", "ns", "lower", 0},
	{"serve.replay_over_service", "ratio", "higher", 0},
	{"serve.errors", "count", "lower", 0},

	{"stm.commits", "count", "higher", 0},
	{"stm.aborts_per_commit", "ratio", "lower", 0},
	{"stm.tag_abort_share", "share", "lower", 0},
	{"stm.empty_tx_ns.tagged", "ns", "lower", 0},
	{"stm.empty_tx_ns.norec", "ns", "lower", 0},
	{"stm.read_ns.tagged", "ns", "lower", 0},
	{"stm.read_ns.norec", "ns", "lower", 0},
	{"stm.write_commit_ns.tagged", "ns", "lower", 0},
	{"stm.write_commit_ns.norec", "ns", "lower", 0},
	{"stm.replay_ns.tagged", "ns", "lower", 0},
	{"stm.replay_ns.norec", "ns", "lower", 0},
	{"stm.tagged_over_norec", "ratio", "lower", 0},

	{"txmap.get_ns", "ns", "lower", 0},
	{"txmap.put_ns", "ns", "lower", 0},
	{"txmap.del_ns", "ns", "lower", 0},
	{"txmap.loads_per_get", "count", "lower", 0},
	{"skiplist.has_ns", "ns", "lower", 0},
	{"skiplist.add_ns", "ns", "lower", 0},
	{"skiplist.rem_ns", "ns", "lower", 0},
	{"vacation.resv_ns", "ns", "lower", 0},
	{"vacation.bill_ns", "ns", "lower", 0},
	{"vacation.cancel_ns", "ns", "lower", 0},
	{"vacation.populate_s", "s", "lower", 0},
	{"vacation.sim_ktx.norec", "ktx/s", "higher", 0},

	{"vtags.load_ns", "ns", "lower", 0},
	{"vtags.store_ns", "ns", "lower", 0},
	{"vtags.addtag_ns", "ns", "lower", 0},
	{"vtags.validate_ns", "ns", "lower", 0},
	{"vtags.vas_ns", "ns", "lower", 0},
	{"vtags.loads_per_req", "count", "lower", 0},
	{"vtags.addtags_per_req", "count", "lower", 0},
	{"vtags.validates_per_req", "count", "lower", 0},
	{"vtags.est_ns_per_req", "ns", "lower", 0},
	{"vtags.tag_overflows", "count", "lower", 0},
	{"vtags.tag_evictions", "count", "lower", 0},

	{"reclaim.retired", "count", "higher", 0},
	{"reclaim.freed_share", "share", "higher", 0},
	{"reclaim.peak_lines", "count", "lower", 0},
	{"reclaim.reused_alloc_share", "share", "higher", 0},
	{"telemetry.tick_ns", "ns", "lower", 0},
	{"telemetry.observe_ns", "ns", "lower", 0},

	{"machine.l1_hit_share", "share", "higher", 0},
	{"machine.l2_hit_share", "share", "higher", 0},
	{"machine.remote_fill_share", "share", "lower", 0},
	{"machine.mem_fill_share", "share", "lower", 0},
	{"machine.cycles_per_op", "cycles", "lower", 0},
	{"machine.cycles_per_op.base", "cycles", "lower", 0},
	{"machine.inval_per_op", "count", "lower", 0},
	{"machine.inval_per_op.base", "count", "lower", 0},
	{"machine.tag_adds_per_op", "count", "lower", 0},
	{"machine.validate_fail_pct", "%", "lower", 0},
	{"machine.vas_fail_pct", "%", "lower", 0},
	{"machine.spurious_evict_per_mop", "count", "lower", 0},
	{"machine.energy_per_op", "units", "lower", 0},
	{"machine.cyc_share.l1", "share", "lower", 0},
	{"machine.cyc_share.l2", "share", "lower", 0},
	{"machine.cyc_share.remote", "share", "lower", 0},
	{"machine.cyc_share.mem", "share", "lower", 0},
	{"machine.cyc_share.inval", "share", "lower", 0},
	{"machine.cyc_share.other", "share", "lower", 0},
	{"machine.host_ns_per_access", "ns", "lower", 0},
	{"machine.load_l1_host_ns", "ns", "lower", 0},
	{"machine.tag_validate_host_ns", "ns", "lower", 0},
	{"machine.vas_host_ns", "ns", "lower", 0},
	{"cachemodel.access_ns", "ns", "lower", 0},

	{"abtree.hoh.retries_per_op", "count", "lower", 0},
	{"abtree.hoh.p50_cycles", "cycles", "lower", 0},
	{"abtree.llx.sim_mops", "Mops/s", "higher", 0},
	{"abtree.llx.p99_cycles", "cycles", "lower", 0},
	{"workload.prefill_s", "s", "lower", 0},
	{"workload.keydraw_ns", "ns", "lower", 0},
	{"harness.host_s.baseline", "s", "lower", 0},
	{"harness.host_s.tagged", "s", "lower", 0},
}

// report collects one run's metric values. set refuses a name the active
// table does not hold and a name set twice, so every metric is emitted
// exactly once or the run fails.
type report struct {
	defs   []metricDef
	index  map[string]int
	values []float64
	have   []bool
}

func newReport(defs []metricDef) *report {
	r := &report{defs: defs, index: make(map[string]int, len(defs)),
		values: make([]float64, len(defs)), have: make([]bool, len(defs))}
	for i, d := range defs {
		r.index[d.Name] = i
	}
	return r
}

func (r *report) set(name string, v float64) {
	i, ok := r.index[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the table", name))
	}
	if r.have[i] {
		panic(fmt.Sprintf("benchmark: metric %q set twice", name))
	}
	r.values[i], r.have[i] = v, true
}

func (r *report) get(name string) float64 { return r.values[r.index[name]] }

// print writes every metric by name with its value and unit.
func (r *report) print(w io.Writer) {
	for i, d := range r.defs {
		note := ""
		if !r.have[i] {
			note = "  (layer not exercised by this workload)"
		}
		fmt.Fprintf(w, "  %-32s %16.6g %-8s%s\n", d.Name, r.values[i], d.Unit, note)
	}
}

// jsonMetrics renders the "metrics" object of the result line.
func (r *report) jsonMetrics() map[string]metricValue {
	out := make(map[string]metricValue, len(r.defs))
	for i, d := range r.defs {
		out[d.Name] = metricValue{Value: r.values[i], Unit: d.Unit}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
