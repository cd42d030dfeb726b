package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ratio is a/b, 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// bucketQuantile estimates the q-quantile of a power-of-two bucket
// histogram (bucket b > 0 holds [2^(b-1), 2^b)), interpolating linearly
// inside the bucket as telemetry.Histogram.Quantile does.
func bucketQuantile(buckets *[telemetry.NumBuckets]uint64, q float64) float64 {
	var total uint64
	for _, n := range buckets {
		total += n
	}
	rank := q * float64(total)
	var cum float64
	for b, n := range buckets {
		if n == 0 {
			continue
		}
		if rank <= cum+float64(n) {
			lo, hi := 0.0, 1.0
			if b > 0 {
				lo = float64(uint64(1) << (b - 1))
				hi = 2 * lo
			}
			return lo + (rank-cum)/float64(n)*(hi-lo)
		}
		cum += float64(n)
	}
	return 0
}

// replayRequests is how many generated requests the ladder replay walks.
const replayRequests = 200_000

// layers measures the served path from the outside, layer by layer: the
// server's own counters across the measured segments, a PING-only segment
// for the wire ceiling, the ladder replay of the same generated stream on a
// benchmark-built replica of the engine, and the unit-cost loops.
func (s *served) layers(r *report, run *tracedRun) {
	// (a) The server's public counters, diffed across the measured segments.
	now := s.counters()
	var requests uint64
	var busy time.Duration
	for _, seg := range append(append([]segment(nil), run.plain...), run.traced...) {
		requests += seg.ops
		busy += seg.host
	}
	served := float64(now.count - s.base.count)
	serviceMean := ratio(float64(now.sum-s.base.sum), served)
	var buckets [telemetry.NumBuckets]uint64
	for b := range buckets {
		buckets[b] = now.buckets[b] - s.base.buckets[b]
	}
	// One scheduler thread runs clients and workers in turn, so a request
	// costs busy/requests of it; what the server does not count as service
	// is the wire: client codec, sockets, netpoll, scheduling.
	perRequest := float64(servedProcs) * float64(busy.Nanoseconds()) / float64(requests)
	r.set("serve.service_mean_ns", serviceMean)
	r.set("serve.service_p50_ns", bucketQuantile(&buckets, 0.50))
	r.set("serve.service_p99_ns", bucketQuantile(&buckets, 0.99))
	r.set("serve.wire_share", 1-serviceMean/perRequest)

	st0, st1 := s.base.stats, now.stats
	r.set("stm.commits", float64(st1.KV.Commits+st1.Res.Commits-st0.KV.Commits-st0.Res.Commits))
	r.set("vtags.tag_overflows", float64(st1.TagOverflows-st0.TagOverflows))
	r.set("vtags.tag_evictions", float64(st1.TagEvictions-st0.TagEvictions))

	// The parallel pass: the same traffic with every scheduler thread the
	// host offers, so the two workers really overlap. This is where aborts
	// and cross-core transfers happen; it is too unsteady here to gate on.
	runtime.GOMAXPROCS(s.procs)
	var par []segment
	for i := 0; i < 3; i++ {
		par = append(par, s.segment(1<<20+i, false))
	}
	runtime.GOMAXPROCS(servedProcs)
	run.extra = append(run.extra, par...)
	after := s.counters()
	st2 := after.stats
	commits := float64(st2.KV.Commits + st2.Res.Commits - st1.KV.Commits - st1.Res.Commits)
	aborts := float64(st2.KV.Aborts + st2.Res.Aborts - st1.KV.Aborts - st1.Res.Aborts)
	tagAborts := float64(st2.KV.TagAborts + st2.Res.TagAborts - st1.KV.TagAborts - st1.Res.TagAborts)
	parRate := median(column(par, segRate))
	r.set("stm.aborts_per_commit", ratio(aborts, commits))
	r.set("stm.tag_abort_share", ratio(tagAborts, aborts))
	r.set("serve.parallel_req_per_s", parRate)
	r.set("serve.parallel_speedup", parRate/median(column(run.plain, segRate)))
	r.set("serve.parallel_service_mean_ns", ratio(float64(after.sum-now.sum), float64(after.count-now.count)))

	// The wire ceiling: the same connections and depth, PING only.
	ping := newTraffic(s.traffic.keyRange, s.traffic.resRange, workload.DistUniform, pingMix)
	for c := range s.reqs {
		ping.fill(s.reqs[c], 0)
	}
	pingSeg := s.timed(func(c int) []serve.Request { return s.reqs[c] }, s.spec.depth, false)
	run.extra = append(run.extra, pingSeg)
	r.set("serve.ping_req_per_s", pingSeg.rate)

	// Quiescent-only reads: shut the server down first.
	closeErr := s.close()
	sum := s.srv.Summarize()
	r.set("serve.errors", float64(sum.Errors))
	if s.spec.engine.Reclaim {
		kv, set := s.srv.Engine().PoolStats()
		retired := float64(kv.Retired + set.Retired)
		allocs := float64(kv.FreshAllocs + kv.ReusedAllocs + set.FreshAllocs + set.ReusedAllocs)
		r.set("reclaim.retired", retired)
		r.set("reclaim.freed_share", ratio(float64(kv.Freed+set.Freed), retired))
		r.set("reclaim.peak_lines", float64(kv.HighWaterLines+set.HighWaterLines))
		r.set("reclaim.reused_alloc_share", ratio(float64(kv.ReusedAllocs+set.ReusedAllocs), allocs))
	}

	// (b) Ladder replay: the same generated stream on one goroutine.
	n := max(replayRequests/run.scale, 1000)
	reqs := make([]serve.Request, n)
	s.traffic.fill(reqs, subSeed(s.seed, 0, 0)) // segment 0, connection 0
	pre := s.traffic.prefillRequests(1)[0]
	lines, appendNS := encodeStream(reqs)
	r.set("serve.append_req_ns", appendNS)
	r.set("serve.parse_req_ns", parseRequestNS(lines))
	r.set("serve.parse_resp_ns", parseResponseNS(reqs))

	cfg := s.spec.engine // seed and scale already applied
	iters := max(unitIters/run.scale, 2000)
	clock := clockNS(iters)
	tagged := replay(newReplica(cfg, true, false), pre, lines, run.tc, run.tc.track("replay", 3*4096))
	norec := replay(newReplica(cfg, false, false), pre, lines, nil, nil)
	counted := replay(newReplica(cfg, true, true), pre, lines, nil, nil)
	taggedNS := float64(tagged.execNS())/float64(n) - clock
	norecNS := float64(norec.execNS())/float64(n) - clock
	r.set("stm.replay_ns.tagged", taggedNS)
	r.set("stm.replay_ns.norec", norecNS)
	r.set("stm.tagged_over_norec", taggedNS/norecNS)
	r.set("serve.replay_over_service", ratio(taggedNS, serviceMean))
	r.set("txmap.get_ns", tagged.meanNS(serve.CmdGet, clock))
	r.set("txmap.put_ns", tagged.meanNS(serve.CmdPut, clock))
	r.set("txmap.del_ns", tagged.meanNS(serve.CmdDel, clock))
	r.set("txmap.loads_per_get", ratio(float64(counted.getLoads), float64(counted.n[classOf(serve.CmdGet)])))
	if tagged.n[classOf(serve.CmdSHas)] > 0 {
		r.set("skiplist.has_ns", tagged.meanNS(serve.CmdSHas, clock))
		r.set("skiplist.add_ns", tagged.meanNS(serve.CmdSAdd, clock))
		r.set("skiplist.rem_ns", tagged.meanNS(serve.CmdSRem, clock))
		r.set("vacation.resv_ns", tagged.meanNS(serve.CmdResv, clock))
		r.set("vacation.bill_ns", tagged.meanNS(serve.CmdBill, clock))
		r.set("vacation.cancel_ns", tagged.meanNS(serve.CmdCancel, clock))
	}

	// Unit costs, then the counted ops priced with them.
	u := vtagsUnitCosts(iters)
	r.set("vtags.load_ns", u.load)
	r.set("vtags.store_ns", u.store)
	r.set("vtags.addtag_ns", u.addTag)
	r.set("vtags.validate_ns", u.validate)
	r.set("vtags.vas_ns", u.vas)
	ops := counted.counts
	est := (float64(ops.loads)*u.load + float64(ops.stores+ops.cas)*u.store + float64(ops.addTags)*u.addTag +
		float64(ops.validates)*u.validate + float64(ops.vas+ops.ias)*u.vas) / float64(n)
	r.set("vtags.loads_per_req", float64(ops.loads)/float64(n))
	r.set("vtags.addtags_per_req", float64(ops.addTags)/float64(n))
	r.set("vtags.validates_per_req", float64(ops.validates)/float64(n))
	r.set("vtags.est_ns_per_req", est)
	for _, v := range []struct {
		tagged bool
		suffix string
	}{{true, "tagged"}, {false, "norec"}} {
		empty, read, write := stmUnitCosts(v.tagged, iters)
		r.set("stm.empty_tx_ns."+v.suffix, empty)
		r.set("stm.read_ns."+v.suffix, read)
		r.set("stm.write_commit_ns."+v.suffix, write)
	}
	tick, observe := telemetryUnitCosts(iters)
	r.set("telemetry.tick_ns", tick)
	r.set("telemetry.observe_ns", observe)
	r.set("workload.keydraw_ns", keyDrawNS(s.traffic.newDraw, iters))

	// Where a request's time goes, outside in.
	fmt.Fprintf(run.out, "  ladder: %.0f ns of scheduler-thread time per request = wire %.0f ns (%.1f%%) + service %.0f ns\n",
		perRequest, perRequest-serviceMean, 100*(1-serviceMean/perRequest), serviceMean)
	fmt.Fprintf(run.out, "          service %.0f ns vs single-thread replay %.0f ns tagged (%.2fx of service), %.0f ns norec: tagged/norec %.2fx\n",
		serviceMean, taggedNS, ratio(taggedNS, serviceMean), norecNS, taggedNS/norecNS)
	fmt.Fprintf(run.out, "          replay %.0f ns = vtags primitives %.0f ns (counts x unit costs) + stm and structure self time %.0f ns; telemetry %.0f ns per request on top\n",
		taggedNS, est, taggedNS-est, tick+observe)
	if closeErr != nil {
		fmt.Fprintf(run.out, "  shutdown: %v\n", closeErr)
	}
}

// machineLayers reads the simulated machine from outside: Snapshot diffs
// over the measured segments of the baseline and tagged cells, priced with
// the machine's own configuration, and the simulator's host unit costs.
func machineLayers(r *report, base, tagged *simCell, iters int) {
	cfg := tagged.m.Config()
	d, db := tagged.stats, base.stats
	acc, ops, total := float64(d.Accesses()), float64(tagged.ops), float64(d.TotalCycles)
	r.set("machine.l1_hit_share", ratio(float64(d.L1Hits), acc))
	r.set("machine.l2_hit_share", ratio(float64(d.L2Hits), acc))
	r.set("machine.remote_fill_share", ratio(float64(d.RemoteFills), acc))
	r.set("machine.mem_fill_share", ratio(float64(d.MemFills), acc))
	r.set("machine.cycles_per_op", ratio(total, ops))
	r.set("machine.cycles_per_op.base", ratio(float64(db.TotalCycles), float64(base.ops)))
	r.set("machine.inval_per_op", ratio(float64(d.InvalidationsSent), ops))
	r.set("machine.inval_per_op.base", ratio(float64(db.InvalidationsSent), float64(base.ops)))
	r.set("machine.tag_adds_per_op", ratio(float64(d.TagAdds), ops))
	r.set("machine.validate_fail_pct", 100*ratio(float64(d.ValidateFails), float64(d.Validates)))
	r.set("machine.vas_fail_pct", 100*ratio(float64(d.VASFails+d.IASFails), float64(d.VASAttempts+d.IASAttempts)))
	r.set("machine.spurious_evict_per_mop", 1e6*ratio(float64(d.SpuriousEvictions), ops))
	r.set("machine.energy_per_op", ratio(d.Energy, ops))

	// Count x configured price over total cycles; other is the residual
	// (compute cycles, CAS and validate charges, invalidation rounds,
	// writebacks), reported rather than hidden.
	l1 := ratio(float64(d.L1Hits*cfg.L1HitCycles), total)
	l2 := ratio(float64(d.L2Hits*cfg.L2HitCycles), total)
	remote := ratio(float64(d.RemoteFills*cfg.RemoteCycles), total)
	mem := ratio(float64(d.MemFills*cfg.MemCycles), total)
	inval := ratio(float64(d.InvalidationsSent*cfg.InvMsgCycles), total)
	r.set("machine.cyc_share.l1", l1)
	r.set("machine.cyc_share.l2", l2)
	r.set("machine.cyc_share.remote", remote)
	r.set("machine.cyc_share.mem", mem)
	r.set("machine.cyc_share.inval", inval)
	r.set("machine.cyc_share.other", 1-l1-l2-remote-mem-inval)

	r.set("machine.host_ns_per_access", ratio(float64(tagged.host.Nanoseconds()), acc))
	u := machineUnitCosts(iters)
	r.set("machine.load_l1_host_ns", u.loadL1)
	r.set("machine.tag_validate_host_ns", u.tagValidate)
	r.set("machine.vas_host_ns", u.vas)
	r.set("cachemodel.access_ns", cacheAccessNS(iters))
	r.set("harness.host_s.baseline", base.host.Seconds())
	r.set("harness.host_s.tagged", tagged.host.Seconds())
	r.set("sim.host_ops_per_s", float64(base.ops+tagged.ops)/(base.host+tagged.host).Seconds())
	r.set("sim.p99_cycles", tagged.lat.Quantile(0.99))
}

// medianSimRate is the cell's median segment throughput in ops per
// simulated second.
func (c *simCell) medianSimRate() float64 {
	hz := c.m.Config().ClockHz
	rates := make([]float64, len(c.segs))
	for i := range c.segs {
		rates[i] = c.segs[i].simRate(hz)
	}
	return median(rates)
}

func (s *simTree) layers(r *report, run *tracedRun) {
	base, tagged := s.cells[0], s.cells[1]
	iters := max(unitIters/run.scale, 2000)
	machineLayers(r, base, tagged, iters)
	r.set("sim.mops", tagged.medianSimRate()/1e6)
	r.set("sim.speedup", tagged.medianSimRate()/base.medianSimRate())
	r.set("abtree.hoh.retries_per_op", ratio(float64(tagged.retries.Sum()), float64(tagged.retries.Count())))
	r.set("abtree.hoh.p50_cycles", tagged.lat.Quantile(0.50))
	r.set("abtree.llx.sim_mops", base.medianSimRate()/1e6)
	r.set("abtree.llx.p99_cycles", base.lat.Quantile(0.99))
	r.set("workload.prefill_s", (base.prefill + tagged.prefill).Seconds())
	cfg := s.config(0)
	r.set("workload.keydraw_ns", keyDrawNS(workload.NewKeyDraw(&cfg), iters))
}

func (s *simVacation) layers(r *report, run *tracedRun) {
	base, tagged := s.cells[0], s.cells[1]
	iters := max(unitIters/run.scale, 2000)
	machineLayers(r, base, tagged, iters)
	r.set("sim.ktx", tagged.medianSimRate()/1e3)
	r.set("sim.speedup", tagged.medianSimRate()/base.medianSimRate())
	r.set("vacation.sim_ktx.norec", base.medianSimRate()/1e3)
	r.set("vacation.populate_s", s.populate.Seconds())
	r.set("stm.commits", float64(tagged.commits))
	r.set("stm.aborts_per_commit", ratio(float64(tagged.aborts), float64(tagged.commits)))
	r.set("stm.tag_abort_share", ratio(float64(tagged.tagAborts), float64(tagged.aborts)))
}
