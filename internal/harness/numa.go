package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/vtags"
	"repro/internal/workload"
)

// NUMAExperiment sweeps the Figure 6/7 tree workload past the paper's
// 64-core ceiling: 64–512 simulated cores on a two-level topology
// (64-core sockets by default), LLX/SCX vs HoH tagging, on both the cycle
// simulator and the vtags software emulation. It answers the question the
// flat 64-core evaluation cannot — where the tagged/software crossover
// moves when cache-to-cache transfers start paying socket hops.
type NUMAExperiment struct {
	Name  string
	Title string

	Cores []int
	// SocketsFor maps a core count to a socket count on the machine
	// backend; nil means one socket per 64 cores (min 1). The vtags
	// emulation has no topology and always reports Sockets 0.
	SocketsFor func(cores int) int

	KeyRange     uint64
	OpsPerThread int
	Mix          workload.Mix
	Seed         int64
	// Dist is the key distribution for the measured phase; DistHotSet or
	// DistZipfian give the sweep its skewed-traffic variant.
	Dist workload.KeyDist

	// MemBytes sizes each cell's simulated memory.
	MemBytes int

	// Workers bounds the host worker pool cells fan out over, exactly as
	// in SetExperiment: 0 serial, -1 one per host CPU. Every field of the
	// result except HostSeconds is identical for any worker count.
	Workers int
}

// NUMASweep builds the standard sweep: the Fig 6 workload (35/35 tree) at
// 64/128/256 cores, plus 512 at full scale.
func NUMASweep(quick bool) *NUMAExperiment {
	e := &NUMAExperiment{
		Name:         "numa",
		Title:        "(a,b)-tree beyond the paper: 64-core sockets, 35% ins / 35% del",
		Cores:        []int{64, 128, 256},
		KeyRange:     8192,
		OpsPerThread: 60,
		Mix:          workload.Update3535,
		Seed:         42,
		MemBytes:     256 << 20,
	}
	if !quick {
		e.Cores = append(e.Cores, 512)
		e.OpsPerThread = 200
	}
	return e
}

func (e *NUMAExperiment) sockets(cores int) int {
	if e.SocketsFor != nil {
		return e.SocketsFor(cores)
	}
	if s := cores / 64; s > 1 {
		return s
	}
	return 1
}

// NUMAPoint is one cell of the sweep. Latencies are in backend clock
// units: simulated cycles on the machine, logical ticks on vtags. The
// simulated metrics (throughput, miss rate, hops) exist only on the
// machine backend; HostSeconds is the only host-dependent field.
type NUMAPoint struct {
	Backend string `json:"backend"`
	Variant string `json:"variant"`
	Cores   int    `json:"cores"`
	Sockets int    `json:"sockets,omitempty"`
	Dist    string `json:"dist"`

	ThroughputMops  float64 `json:"throughput_mops,omitempty"`
	MissRatePct     float64 `json:"miss_rate_pct,omitempty"`
	SocketHopsPerOp float64 `json:"socket_hops_per_op,omitempty"`

	OpLatP50    float64 `json:"op_lat_p50"`
	OpLatP99    float64 `json:"op_lat_p99"`
	HostSeconds float64 `json:"host_seconds"`
}

// Run executes the sweep and returns points ordered backend, then
// variant, then core count (machine first — the backend with the cost
// model the sweep is about).
func (e *NUMAExperiment) Run() []NUMAPoint {
	backends := []string{"machine", "vtags"}
	variants := TreeVariants()
	nc, nv := len(e.Cores), len(variants)
	raw := make([]NUMAPoint, len(backends)*nv*nc)
	forEachCell(resolveWorkers(e.Workers), len(raw), func(i int) {
		c := e.Cores[i%nc]
		v := variants[i/nc%nv]
		be := backends[i/(nc*nv)]
		raw[i] = e.runOne(be, v, c)
	})
	return raw
}

func (e *NUMAExperiment) runOne(backend string, v SetVariant, cores int) NUMAPoint {
	start := time.Now()
	p := NUMAPoint{Backend: backend, Variant: v.Name, Cores: cores, Dist: e.Dist.String()}
	var m core.Memory
	var mach *machine.Machine
	if backend == "machine" {
		p.Sockets = e.sockets(cores)
		cfg := machine.NUMAConfig(cores, p.Sockets)
		cfg.MemBytes = e.MemBytes
		mach = machine.New(cfg)
		m = mach
	} else {
		m = vtags.New(e.MemBytes, cores)
	}
	s, _ := build(&v, m)
	wcfg := workload.Config{
		Threads:      cores,
		KeyRange:     e.KeyRange,
		PrefillSize:  int(e.KeyRange / 2),
		OpsPerThread: e.OpsPerThread,
		Mix:          e.Mix,
		Seed:         e.Seed,
		Dist:         e.Dist,
	}
	workload.Prefill(m, s, wcfg)
	set := telemetry.NewSet(cores)
	if st, ok := m.(telemetry.Attacher); ok {
		st.SetTelemetry(set)
	}
	wcfg.Telemetry = set
	settleHeap()
	var before machine.Stats
	if mach != nil {
		before = mach.Snapshot()
	}
	counts := workload.Run(m, s, wcfg)
	set.Flush()
	agg := set.Merge()
	p.OpLatP50 = agg.OpLatency.Quantile(0.5)
	p.OpLatP99 = agg.OpLatency.Quantile(0.99)
	if mach != nil {
		after := mach.Snapshot()
		d := diffToPoint(v.Name, cores, before, after, counts.Ops, mach.Config().ClockHz)
		p.ThroughputMops = d.ThroughputMops
		p.MissRatePct = d.MissRatePct
		if counts.Ops > 0 {
			p.SocketHopsPerOp = float64(after.SocketHops-before.SocketHops) / float64(counts.Ops)
		}
	}
	p.HostSeconds = time.Since(start).Seconds()
	return p
}

// PrintNUMA writes the sweep as one block per backend: core counts as
// columns, one row per (variant, metric).
func PrintNUMA(w io.Writer, title string, points []NUMAPoint) {
	fmt.Fprintf(w, "== %s ==\n", title)
	cores := []int{}
	seen := map[int]bool{}
	for _, p := range points {
		if !seen[p.Cores] {
			seen[p.Cores] = true
			cores = append(cores, p.Cores)
		}
	}
	idx := map[string]map[int]NUMAPoint{}
	var order []string
	for _, p := range points {
		k := p.Backend + "/" + p.Variant
		if idx[k] == nil {
			idx[k] = map[int]NUMAPoint{}
			order = append(order, k)
		}
		idx[k][p.Cores] = p
	}
	metrics := []struct {
		name string
		get  func(NUMAPoint) float64
		on   func(NUMAPoint) bool
	}{
		{"throughput (Mops/s)", func(p NUMAPoint) float64 { return p.ThroughputMops }, func(p NUMAPoint) bool { return p.Backend == "machine" }},
		{"L1 miss rate (%)", func(p NUMAPoint) float64 { return p.MissRatePct }, func(p NUMAPoint) bool { return p.Backend == "machine" }},
		{"socket hops/op", func(p NUMAPoint) float64 { return p.SocketHopsPerOp }, func(p NUMAPoint) bool { return p.Backend == "machine" }},
		{"op latency p99", func(p NUMAPoint) float64 { return p.OpLatP99 }, func(NUMAPoint) bool { return true }},
	}
	for _, met := range metrics {
		fmt.Fprintf(w, "-- %s --\n", met.name)
		fmt.Fprintf(w, "%-22s", "cores")
		for _, c := range cores {
			fmt.Fprintf(w, "%10d", c)
		}
		fmt.Fprintln(w)
		for _, k := range order {
			if !met.on(idx[k][cores[0]]) {
				continue
			}
			fmt.Fprintf(w, "%-22s", k)
			for _, c := range cores {
				fmt.Fprintf(w, "%10.3f", met.get(idx[k][c]))
			}
			fmt.Fprintln(w)
		}
	}
}
