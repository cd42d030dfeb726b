package harness

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
)

// Fixed points for the printer goldens: values with several significant
// digits, zeros, and integers large enough to fill a column.

func fixedSetPoints(tel, reclaim bool) []Point {
	var points []Point
	for vi, v := range []string{"harris", "vas", "hoh-tag"} {
		for ti, n := range []int{1, 4, 16} {
			f := float64(1 + vi*3 + ti)
			p := Point{
				Variant: v, Threads: n,
				ThroughputMops:     1.25 * f,
				MissRatePct:        3.14159 * f,
				EnergyPerOp:        120.5 + 7.0625*f,
				ValidateFailPct:    0.0005 * f * f,
				VASFailPct:         float64(vi) * 0.333,
				SpuriousPerMilOps:  11 * f,
				InvalidationsPerOp: 0.0125 * f,
			}
			if tel {
				p.OpLatP50 = 64 * f
				p.OpLatP99 = 1024.5 * f
				p.OpLatMax = uint64(4096 * f)
				p.RetriesPerOp = 0.01 * f
				p.Windows = []telemetry.Window{{Start: 0, End: 512, Ops: 3}}
			}
			if reclaim && vi > 0 {
				p.RetireFreeP50 = 2000 + f
				p.RetireFreeP99 = 13070.25 * f
				p.PeakLiveLines = int64(4178 * f)
				p.FreelistLines = int64(37 * f)
			}
			points = append(points, p)
		}
	}
	return points
}

func fixedNUMAPoints() []NUMAPoint {
	var points []NUMAPoint
	for bi, be := range []string{"machine", "vtags"} {
		for vi, v := range []string{"llxscx", "hoh-tag"} {
			for ci, c := range []int{64, 128, 256} {
				f := float64(1 + bi*6 + vi*3 + ci)
				p := NUMAPoint{Backend: be, Variant: v, Cores: c, Dist: "uniform",
					OpLatP50: 100 * f, OpLatP99: 1500.5 * f, HostSeconds: 0.01 * f}
				if be == "machine" {
					p.Sockets = c / 64
					p.ThroughputMops = 2.75 * f
					p.MissRatePct = 12.5 / f
					p.SocketHopsPerOp = 0.0625 * f * float64(ci)
				}
				points = append(points, p)
			}
		}
	}
	return points
}

func fixedVacationPoints() []VacationPoint {
	var points []VacationPoint
	for vi, v := range []string{"norec", "tagged"} {
		for ti, n := range []int{1, 2, 8} {
			f := float64(1 + vi*3 + ti)
			points = append(points, VacationPoint{Variant: v, Threads: n,
				ThroughputKtx: 1431.0625 * f, MissRatePct: 4.125 * f,
				EnergyPerTx: 20500.5 / f, AbortsPerTx: 0.0375 * f * float64(vi)})
		}
	}
	return points
}

func fixedElisionPoints() []ElisionPoint {
	var points []ElisionPoint
	for li, lines := range []int{8, 64, 512} {
		for si, s := range []string{"list", "abtree"} {
			f := float64(1 + li*2 + si)
			points = append(points, ElisionPoint{Structure: s, L1Lines: lines,
				FastPct: 100 - 12.125*f, SpuriousPct: 0.3125 * f, Mops: 1.0625 * f})
		}
	}
	return points
}

// TestPrintTable pins every figure table byte for byte over fixed points.
// The goldens were recorded before the figures shared one table writer, so
// a change to one is a change to memtag-bench's output.
func TestPrintTable(t *testing.T) {
	for _, c := range []struct {
		name  string
		print func(*bytes.Buffer)
		want  string
	}{
		{"set/bare", func(b *bytes.Buffer) {
			(&SetExperiment{Title: "Linked list, bare"}).Print(b, fixedSetPoints(false, false))
		}, goldenSetBare},
		{"set/telemetry", func(b *bytes.Buffer) {
			(&SetExperiment{Title: "Linked list, telemetry"}).Print(b, fixedSetPoints(true, false))
		}, goldenSetTelemetry},
		{"set/reclaim", func(b *bytes.Buffer) {
			(&SetExperiment{Title: "Skip list, reclaim"}).Print(b, fixedSetPoints(false, true))
		}, goldenSetReclaim},
		{"set/telemetry+reclaim", func(b *bytes.Buffer) {
			(&SetExperiment{Title: "Skip list, telemetry and reclaim"}).Print(b, fixedSetPoints(true, true))
		}, goldenSetTelemetryReclaim},
		{"numa", func(b *bytes.Buffer) {
			(&NUMAExperiment{Title: "NUMA sweep"}).Print(b, fixedNUMAPoints())
		}, goldenNUMA},
		{"vacation", func(b *bytes.Buffer) {
			(&VacationExperiment{Title: "STAMP Vacation"}).Print(b, fixedVacationPoints())
		}, goldenVacation},
		{"elision", func(b *bytes.Buffer) {
			(&ElisionExperiment{Title: "Fallback trip rate"}).Print(b, fixedElisionPoints())
		}, goldenElision},
	} {
		t.Run(c.name, func(t *testing.T) {
			var b bytes.Buffer
			c.print(&b)
			if got := b.String(); got != c.want {
				t.Errorf("table differs from the golden.\ngot:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}

const goldenSetBare = `== Linked list, bare ==
-- throughput (Mops/s) --
threads                1         4        16
harris             1.250     2.500     3.750
vas                5.000     6.250     7.500
hoh-tag            8.750    10.000    11.250
-- L1 miss rate (%) --
threads                1         4        16
harris             3.142     6.283     9.425
vas               12.566    15.708    18.850
hoh-tag           21.991    25.133    28.274
-- energy/op (units) --
threads                1         4        16
harris           127.562   134.625   141.688
vas              148.750   155.812   162.875
hoh-tag          169.938   177.000   184.062
-- validate fails (%) --
threads                1         4        16
harris             0.001     0.002     0.005
vas                0.008     0.013     0.018
hoh-tag            0.025     0.032     0.041
-- VAS/IAS fails (%) --
threads                1         4        16
harris             0.000     0.000     0.000
vas                0.333     0.333     0.333
hoh-tag            0.666     0.666     0.666
-- invalidations/op --
threads                1         4        16
harris             0.013     0.025     0.038
vas                0.050     0.062     0.075
hoh-tag            0.088     0.100     0.113
`

const goldenSetTelemetry = `== Linked list, telemetry ==
-- throughput (Mops/s) --
threads                1         4        16
harris             1.250     2.500     3.750
vas                5.000     6.250     7.500
hoh-tag            8.750    10.000    11.250
-- L1 miss rate (%) --
threads                1         4        16
harris             3.142     6.283     9.425
vas               12.566    15.708    18.850
hoh-tag           21.991    25.133    28.274
-- energy/op (units) --
threads                1         4        16
harris           127.562   134.625   141.688
vas              148.750   155.812   162.875
hoh-tag          169.938   177.000   184.062
-- validate fails (%) --
threads                1         4        16
harris             0.001     0.002     0.005
vas                0.008     0.013     0.018
hoh-tag            0.025     0.032     0.041
-- VAS/IAS fails (%) --
threads                1         4        16
harris             0.000     0.000     0.000
vas                0.333     0.333     0.333
hoh-tag            0.666     0.666     0.666
-- invalidations/op --
threads                1         4        16
harris             0.013     0.025     0.038
vas                0.050     0.062     0.075
hoh-tag            0.088     0.100     0.113
-- op latency p50 (cyc) --
threads                1         4        16
harris            64.000   128.000   192.000
vas              256.000   320.000   384.000
hoh-tag          448.000   512.000   576.000
-- op latency p99 (cyc) --
threads                1         4        16
harris          1024.500  2049.000  3073.500
vas             4098.000  5122.500  6147.000
hoh-tag         7171.500  8196.000  9220.500
-- retries/op --
threads                1         4        16
harris             0.010     0.020     0.030
vas                0.040     0.050     0.060
hoh-tag            0.070     0.080     0.090
`

const goldenSetReclaim = `== Skip list, reclaim ==
-- throughput (Mops/s) --
threads                1         4        16
harris             1.250     2.500     3.750
vas                5.000     6.250     7.500
hoh-tag            8.750    10.000    11.250
-- L1 miss rate (%) --
threads                1         4        16
harris             3.142     6.283     9.425
vas               12.566    15.708    18.850
hoh-tag           21.991    25.133    28.274
-- energy/op (units) --
threads                1         4        16
harris           127.562   134.625   141.688
vas              148.750   155.812   162.875
hoh-tag          169.938   177.000   184.062
-- validate fails (%) --
threads                1         4        16
harris             0.001     0.002     0.005
vas                0.008     0.013     0.018
hoh-tag            0.025     0.032     0.041
-- VAS/IAS fails (%) --
threads                1         4        16
harris             0.000     0.000     0.000
vas                0.333     0.333     0.333
hoh-tag            0.666     0.666     0.666
-- invalidations/op --
threads                1         4        16
harris             0.013     0.025     0.038
vas                0.050     0.062     0.075
hoh-tag            0.088     0.100     0.113
-- retire-free p50 (cyc) --
threads                1         4        16
harris             0.000     0.000     0.000
vas             2004.000  2005.000  2006.000
hoh-tag         2007.000  2008.000  2009.000
-- retire-free p99 (cyc) --
threads                1         4        16
harris             0.000     0.000     0.000
vas            52281.000 65351.250 78421.500
hoh-tag        91491.750104562.000117632.250
-- peak live lines --
threads                1         4        16
harris             0.000     0.000     0.000
vas            16712.000 20890.000 25068.000
hoh-tag        29246.000 33424.000 37602.000
-- free-list lines --
threads                1         4        16
harris             0.000     0.000     0.000
vas              148.000   185.000   222.000
hoh-tag          259.000   296.000   333.000
`

const goldenSetTelemetryReclaim = `== Skip list, telemetry and reclaim ==
-- throughput (Mops/s) --
threads                1         4        16
harris             1.250     2.500     3.750
vas                5.000     6.250     7.500
hoh-tag            8.750    10.000    11.250
-- L1 miss rate (%) --
threads                1         4        16
harris             3.142     6.283     9.425
vas               12.566    15.708    18.850
hoh-tag           21.991    25.133    28.274
-- energy/op (units) --
threads                1         4        16
harris           127.562   134.625   141.688
vas              148.750   155.812   162.875
hoh-tag          169.938   177.000   184.062
-- validate fails (%) --
threads                1         4        16
harris             0.001     0.002     0.005
vas                0.008     0.013     0.018
hoh-tag            0.025     0.032     0.041
-- VAS/IAS fails (%) --
threads                1         4        16
harris             0.000     0.000     0.000
vas                0.333     0.333     0.333
hoh-tag            0.666     0.666     0.666
-- invalidations/op --
threads                1         4        16
harris             0.013     0.025     0.038
vas                0.050     0.062     0.075
hoh-tag            0.088     0.100     0.113
-- op latency p50 (cyc) --
threads                1         4        16
harris            64.000   128.000   192.000
vas              256.000   320.000   384.000
hoh-tag          448.000   512.000   576.000
-- op latency p99 (cyc) --
threads                1         4        16
harris          1024.500  2049.000  3073.500
vas             4098.000  5122.500  6147.000
hoh-tag         7171.500  8196.000  9220.500
-- retries/op --
threads                1         4        16
harris             0.010     0.020     0.030
vas                0.040     0.050     0.060
hoh-tag            0.070     0.080     0.090
-- retire-free p50 (cyc) --
threads                1         4        16
harris             0.000     0.000     0.000
vas             2004.000  2005.000  2006.000
hoh-tag         2007.000  2008.000  2009.000
-- retire-free p99 (cyc) --
threads                1         4        16
harris             0.000     0.000     0.000
vas            52281.000 65351.250 78421.500
hoh-tag        91491.750104562.000117632.250
-- peak live lines --
threads                1         4        16
harris             0.000     0.000     0.000
vas            16712.000 20890.000 25068.000
hoh-tag        29246.000 33424.000 37602.000
-- free-list lines --
threads                1         4        16
harris             0.000     0.000     0.000
vas              148.000   185.000   222.000
hoh-tag          259.000   296.000   333.000
`

const goldenNUMA = `== NUMA sweep ==
-- throughput (Mops/s) --
cores                         64       128       256
machine/llxscx             2.750     5.500     8.250
machine/hoh-tag           11.000    13.750    16.500
-- L1 miss rate (%) --
cores                         64       128       256
machine/llxscx            12.500     6.250     4.167
machine/hoh-tag            3.125     2.500     2.083
-- socket hops/op --
cores                         64       128       256
machine/llxscx             0.000     0.125     0.375
machine/hoh-tag            0.000     0.312     0.750
-- op latency p99 --
cores                         64       128       256
machine/llxscx          1500.500  3001.000  4501.500
machine/hoh-tag         6002.000  7502.500  9003.000
vtags/llxscx           10503.500 12004.000 13504.500
vtags/hoh-tag          15005.000 16505.500 18006.000
`

const goldenVacation = `== STAMP Vacation ==
-- throughput (Ktx/s) --
threads                1         2         8
norec           1431.062  2862.125  4293.188
tagged          5724.250  7155.312  8586.375
-- L1 miss rate (%) --
threads                1         2         8
norec              4.125     8.250    12.375
tagged            16.500    20.625    24.750
-- energy/tx (units) --
threads                1         2         8
norec          20500.500 10250.250  6833.500
tagged          5125.125  4100.100  3416.750
-- aborts/tx --
threads                1         2         8
norec              0.000     0.000     0.000
tagged             0.150     0.188     0.225
`

const goldenElision = `== Fallback trip rate ==
structure    L1 lines  fast-path % validate-fail %     Mops/s
list                8        87.88          0.312      1.062
abtree              8        75.75          0.625      2.125
list               64        63.62          0.938      3.188
abtree             64        51.50          1.250      4.250
list              512        39.38          1.562      5.312
abtree            512        27.25          1.875      6.375
`
