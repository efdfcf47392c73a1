package main

import (
	"cards/internal/core"
)

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	compileS   float64 // median compile time
	inprocS    float64 // median oracle (in-process) execution time
	untrRunS   float64 // median untraced execution time
	traced     []execResult
	phase      phaseReadings
	trace      traceSnapshot
	failedFrac float64
}

// layerMetrics sets every per-layer metric. Counts are per execution
// (the median over the traced executions for the runtime's counters);
// times are seconds per execution unless the name says otherwise.
func layerMetrics(r *report, w workload, c *core.Compiled, in layerInputs) {
	n := float64(len(in.traced))
	per := func(x float64) float64 { return x / n }
	med := func(f func(e *execResult) uint64) float64 {
		xs := make([]uint64, len(in.traced))
		for i := range in.traced {
			xs[i] = f(&in.traced[i])
		}
		return medianU(xs)
	}
	sum := func(f func(e *execResult) uint64) float64 {
		var s uint64
		for i := range in.traced {
			s += f(&in.traced[i])
		}
		return float64(s)
	}
	var runS []float64
	for _, e := range in.traced {
		runS = append(runS, e.runS)
	}
	tracedRunS := median(runS)

	// core: the pass pipeline.
	r.set("core.compile_s", in.compileS, "s")
	r.set("core.guards_inserted", float64(c.Guards.GuardsInserted), "count")
	r.set("core.guards_elided", float64(c.Guards.GuardsElided), "count")

	// interp: the execution floor.
	r.set("interp.instructions", med(func(e *execResult) uint64 { return e.instr }), "count")
	r.set("interp.inproc_run_s", in.inprocS, "s")
	r.set("tax", ratio(in.untrRunS, in.inprocS), "x")

	// farmem: the runtime's slow path.
	counters := []struct {
		name string
		f    func(e *execResult) uint64
	}{
		{"farmem.guard_checks", func(e *execResult) uint64 { return e.stats.GuardChecks }},
		{"farmem.deref_calls", func(e *execResult) uint64 { return e.stats.DerefCalls }},
		{"farmem.remote_fetches", func(e *execResult) uint64 { return e.stats.RemoteFetches }},
		{"farmem.evictions", func(e *execResult) uint64 { return e.stats.Evictions }},
		{"farmem.staged_writebacks", func(e *execResult) uint64 { return e.stats.StagedWriteBacks }},
		{"farmem.writeback_stalls", func(e *execResult) uint64 { return e.stats.WriteBackStalls }},
		{"farmem.staging_hits", func(e *execResult) uint64 { return e.stats.WriteBackStagingHits }},
		{"farmem.prefetch_issued", func(e *execResult) uint64 { return e.prefetches }},
		{"farmem.chases_issued", func(e *execResult) uint64 { return e.stats.ChasesIssued }},
		{"farmem.chase_hops_staged", func(e *execResult) uint64 { return e.stats.ChaseHopsStaged }},
		{"farmem.chase_stale", func(e *execResult) uint64 { return e.stats.ChaseStale }},
		{"farmem.chase_fallbacks", func(e *execResult) uint64 { return e.stats.ChaseFallbacks }},
		{"farmem.store_retries", func(e *execResult) uint64 { return e.stats.StoreRetries }},
		{"farmem.degraded_ops", func(e *execResult) uint64 { return e.stats.DegradedOps }},
	}
	for _, m := range counters {
		r.set(m.name, med(m.f), "count")
	}
	// Useful prefetches: hits over the objects prefetching brought in
	// (plain prefetch reads plus the path objects chase programs
	// staged; a chase program counts as one issue but delivers a path).
	r.set("farmem.prefetch_useful", ratio(sum(func(e *execResult) uint64 { return e.pfHits }),
		sum(func(e *execResult) uint64 { return e.prefetches - e.stats.ChasesIssued + e.stats.ChaseHopsStaged })), "fraction")
	r.set("failed_frac", in.failedFrac, "fraction")

	// replica / shardmap: fan-out and the layer's own time on the
	// application thread.
	st, bk := &in.trace.tallies[layerStore], &in.trace.tallies[layerBackend]
	calls := func(t *tally) float64 { return float64(t.syncCalls + t.asyncCalls) }
	replicated := w.tier.replicas > 1
	var writeFan, readFan, selfS float64
	if replicated {
		writeFan = ratio(calls(&bk[opWrite]), calls(&st[opWrite]))
		readFan = ratio(calls(&bk[opRead]), calls(&st[opRead]))
		selfS = per(float64(in.trace.onThreadNS[layerStore]-in.trace.nestedNS) / 1e9)
	}
	r.set("replica.write_fanout", writeFan, "calls/call")
	r.set("replica.read_fanout", readFan, "calls/call")
	r.set("replica.self_s", selfS, "s")

	// remote: the client transport. Latencies are taken at the
	// transport boundary (the backends when replicated).
	tp := st
	if replicated {
		tp = bk
	}
	var blockNS int64
	var syncCalls, allCalls, errs float64
	for k := opKind(0); k < numKinds; k++ {
		blockNS += st[k].syncNS
		syncCalls += float64(st[k].syncCalls)
		allCalls += calls(&st[k])
		errs += float64(tp[k].errors)
		lat := tp[k].latUS
		name := "remote." + kindNames[k]
		r.set(name+"_p50_us", quantile(lat, 0.50), "us")
		r.set(name+"_p99_us", quantile(lat, 0.99), "us")
		r.set(name+"_samples", float64(len(lat)), "count")
	}
	r.set("remote.block_s", per(float64(blockNS)/1e9), "s")
	r.set("remote.sync_frac", ratio(syncCalls, allCalls), "fraction")
	r.set("remote.errors", errs, "count")

	// rdma: codec and framing, from the fleet's wire counters.
	f := in.phase.fleet
	wire := f.family("cards_wire_bytes_total")
	ops := f.family("cards_remote_reads_total") + f.family("cards_remote_writes_total") + f.family("cards_remote_chases_total")
	r.set("rdma.wire_mib", per(wire)/(1<<20), "MiB")
	r.set("rdma.bytes_per_op", ratio(wire, ops), "B")
	r.set("rdma.reads_per_batch", ratio(f.family("cards_remote_batch_reads_sum"), f.family("cards_remote_batch_reads_count")), "count")
	r.set("rdma.writes_per_batch", ratio(f.family("cards_remote_batch_writes_sum"), f.family("cards_remote_batch_writes_count")), "count")
	r.set("rdma.compression_permille",
		ratio(f.family("cards_wire_compression_ratio_permille_sum"), f.family("cards_wire_compression_ratio_permille_count")), "permille")

	// CPU attribution: each class's share of the profile samples times
	// the process CPU measured from outside, per execution.
	clientCPU := per(in.phase.clientCPU)
	att, tot := in.phase.clientProf.attribute(), in.phase.clientProf.totalS()
	for _, cls := range cpuClasses {
		r.set("cpu.client."+cls+"_s", ratio(att[cls], tot)*clientCPU, "s")
	}
	r.set("cpu.client.profile_coverage", ratio(tot, in.phase.clientCPU), "fraction")
	serverCPU := per(in.phase.serverCPU)
	sAtt := map[string]float64{}
	var sTot, sMeasured float64
	for _, sp := range in.phase.servers {
		for cls, v := range sp.prof.attribute() {
			switch cls {
			case cpuRemote, cpuRdma, cpuSyscall, cpuGC:
			default:
				cls = cpuOther // the server runs no interpreter or runtime
			}
			sAtt[cls] += v
		}
		sTot += sp.prof.totalS()
		sMeasured += sp.cpuS
	}
	for _, cls := range []string{cpuRemote, cpuRdma, cpuSyscall, cpuGC, cpuOther} {
		r.set("cpu.server."+cls+"_s", ratio(sAtt[cls], sTot)*serverCPU, "s")
	}
	r.set("cpu.server.profile_coverage", ratio(sTot, sMeasured), "fraction")

	// server: cardsd from outside (/proc and /metrics).
	replies := f.family("cards_remote_read_batches_total") + f.family("cards_remote_write_batches_total") +
		f.family("cards_remote_chase_batches_total") + f.family("cards_remote_ping_ns_count")
	r.set("server.cpu_s", serverCPU, "s")
	r.set("server.write_syscalls_per_reply", ratio(float64(in.phase.serverSysW), replies), "count")
	r.set("server.read_syscalls_per_request", ratio(float64(in.phase.serverSysR), replies), "count")
	r.set("server.read_service_us", ratio(f.family("cards_remote_read_ns_sum"), f.family("cards_remote_read_ns_count"))/1e3, "us")
	r.set("server.write_service_us", ratio(f.family("cards_remote_write_ns_sum"), f.family("cards_remote_write_ns_count"))/1e3, "us")
	r.set("server.rss_mib", float64(in.phase.serverHWMKiB)/1024, "MiB")

	// client process.
	r.set("client.cpu_s", clientCPU, "s")
	r.set("client.syscalls_per_op", ratio(float64(in.phase.clientSys), sum(func(e *execResult) uint64 { return e.attempted() })), "count")
	r.set("client.gc_s", per(in.phase.clientGC), "s")

	// faultnet link: the busier direction against the shaped capacity.
	busier := max(f.family("cards_remote_bytes_in_total"), f.family("cards_remote_bytes_out_total"))
	r.set("link.utilization", ratio(per(busier), linkBandwidth*in.untrRunS), "fraction")

	// tracing itself.
	r.set("trace.run_s", tracedRunS, "s")
	r.set("trace.overhead_frac", ratio(tracedRunS, in.untrRunS)-1, "fraction")
	r.set("trace.spans", float64(in.trace.spans), "count")
	r.set("trace.spans_dropped", float64(in.trace.dropped), "count")
}
