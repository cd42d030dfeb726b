package main

import (
	"fmt"
	"io"
)

// agreePasses is how many passes of the whole suite make one set. One pass
// per set is not enough here: the host has slow episodes of 20-30 % lasting
// up to a minute, which a single run cannot tell from a regression; the
// median of three can, as the driver's median of ten does.
const agreePasses = 3

// runAgree answers "do two sets of runs of the same code agree?". Per seed it
// runs the suite 2 x agreePasses times, alternating workload order from pass
// to pass; even passes form set A, odd passes set B. Per workload and
// end-to-end metric it prints every run made, both medians, their relative
// difference, the bound, and the spread over the first run's segments, and
// reports a breach when either median is worse than the other by more than
// the bound.
func runAgree(seconds float64, out io.Writer) bool {
	ok := true
	for _, seed := range []int64{defaultSeed, heldBackSeed} {
		runs := make([][]*result, len(workloads)) // per workload, in pass order
		for pass := 0; pass < 2*agreePasses; pass++ {
			for k := range workloads {
				i := k
				if pass%2 == 1 {
					i = len(workloads) - 1 - k
				}
				res := runEndToEnd(&workloads[i], seed, seconds, 1, io.Discard)
				if !res.correct() {
					fmt.Fprintf(out, "  %s pass %d: FAILED correctness: %d of %d failed, %v\n",
						workloads[i].name, pass, res.failed, res.attempted, res.err)
					ok = false
				}
				runs[i] = append(runs[i], res)
			}
		}
		fmt.Fprintf(out, "seed %d: sets A (even passes) and B (odd passes) of %d runs each\n", seed, agreePasses)
		fmt.Fprintf(out, "  %-13s %-14s %12s %12s %8s %6s %8s  %s\n",
			"workload", "metric", "median A", "median B", "B vs A", "bound", "seg.spr.", "runs in pass order")
		for i, w := range workloads {
			first := runs[i][0].segments
			spread := map[string]float64{
				"ops_per_s":     quartileSpread(column(first, segRate)),
				"op_p50_us":     quartileSpread(column(first, segP50)),
				"op_p99_us":     quartileSpread(column(first, segP99)),
				"cpu_us_per_op": quartileSpread(column(first, segCPU)),
			}
			for _, d := range endToEnd {
				var setA, setB []float64
				all := ""
				for pass, res := range runs[i] {
					v := res.report.get(d.Name)
					if pass%2 == 0 {
						setA = append(setA, v)
					} else {
						setB = append(setB, v)
					}
					all += fmt.Sprintf(" %.5g", v)
				}
				a, b := median(setA), median(setB)
				verdict := ""
				if worseBy(a, b, d.Better) > d.Bound || worseBy(b, a, d.Better) > d.Bound {
					verdict = "  BREACH"
					ok = false
				}
				fmt.Fprintf(out, "  %-13s %-14s %12.6g %12.6g %+8.4f %6.2f %8.4f %s%s\n",
					w.name, d.Name, a, b, (b-a)/a, d.Bound, spread[d.Name], all, verdict)
			}
		}
	}
	return ok
}

// worseBy is the share of base by which other is worse (negative: better).
func worseBy(base, other float64, better string) float64 {
	if better == "higher" {
		return (base - other) / base
	}
	return (other - base) / base
}
