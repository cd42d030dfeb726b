package harness

import (
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
	// Sockets is the machine backend's socket count; 0 means one socket per
	// 64 cores (min 1). The vtags emulation has no topology and always
	// reports Sockets 0.
	Sockets int

	KeyRange     uint64
	OpsPerThread int
	Mix          workload.Mix
	Seed         int64
	// Dist is the key distribution for the measured phase; DistHotSet or
	// DistZipfian give the sweep its skewed-traffic variant.
	Dist workload.KeyDist

	// MemBytes sizes each cell's simulated memory.
	MemBytes int

	// Workers bounds the host goroutines cells fan out over, as in
	// SetExperiment. Every field of the result except HostSeconds is
	// identical for any worker count.
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
	return grid(e.Workers, len(backends)*len(variants), len(e.Cores), 1, func(row, c, _ int) NUMAPoint {
		return e.runOne(backends[row/len(variants)], &variants[row%len(variants)], e.Cores[c])
	}, meanOfTrials[NUMAPoint])
}

func (e *NUMAExperiment) runOne(backend string, v *SetVariant, cores int) NUMAPoint {
	start := time.Now()
	p := NUMAPoint{Backend: backend, Variant: v.Name, Cores: cores, Dist: e.Dist.String()}
	var m core.Memory
	if backend == "machine" {
		p.Sockets = e.Sockets
		if p.Sockets <= 0 {
			p.Sockets = max(cores/64, 1)
		}
		cfg := machine.NUMAConfig(cores, p.Sockets)
		cfg.MemBytes = e.MemBytes
		m = machine.New(cfg)
	} else {
		m = vtags.New(e.MemBytes, cores)
	}
	s := v.Build(m)
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
	ph := timed(m, func() uint64 { return workload.Run(m, s, wcfg).Ops })
	set.Flush()
	agg := set.Merge()
	p.OpLatP50 = agg.OpLatency.Quantile(0.5)
	p.OpLatP99 = agg.OpLatency.Quantile(0.99)
	p.ThroughputMops = ph.rate(1e6)
	p.MissRatePct = ph.missPct()
	p.SocketHopsPerOp = ph.perOp(float64(ph.SocketHops))
	p.HostSeconds = time.Since(start).Seconds()
	return p
}

// Print writes the sweep with core counts as columns and one row per
// (backend, variant); the simulated metrics have machine rows only.
func (e *NUMAExperiment) Print(w io.Writer, points []NUMAPoint) {
	onMachine := func(p NUMAPoint) bool { return p.Backend == "machine" }
	table[NUMAPoint]{
		axis:  "cores",
		width: 22,
		at:    func(p NUMAPoint) (string, int) { return p.Backend + "/" + p.Variant, p.Cores },
		metrics: []metric[NUMAPoint]{
			{name: "throughput (Mops/s)", get: func(p NUMAPoint) float64 { return p.ThroughputMops }, only: onMachine},
			{name: "L1 miss rate (%)", get: func(p NUMAPoint) float64 { return p.MissRatePct }, only: onMachine},
			{name: "socket hops/op", get: func(p NUMAPoint) float64 { return p.SocketHopsPerOp }, only: onMachine},
			{name: "op latency p99", get: func(p NUMAPoint) float64 { return p.OpLatP99 }},
		},
	}.print(w, e.Title, points)
}
