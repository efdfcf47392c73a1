package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"cards/internal/core"
)

// clientCPU returns this process's user+system CPU seconds.
func clientCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPU returns the Go runtime's estimate of CPU seconds spent in the
// garbage collector so far.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// Coverage check: the profile's samples must account for the process
// CPU measured from outside over the same window, once the window holds
// enough CPU for the 100 Hz sampling error to be small. The kernel
// checks per-thread CPU timers only on scheduler ticks that find the
// thread running and delivers one signal however many periods elapsed,
// so threads that run in short bursts between blocking reads (every
// transport thread here) are under-sampled: a bare two-process TCP
// ping-pong profiles at about 0.84 of its measured CPU, against 0.99
// for a CPU-bound loop. The floor admits that bias; a misattributed or
// truncated profile falls well below it. The cpu.* metrics scale each
// class's share of the samples to the measured CPU, so they sum to it.
const (
	coverageMin    = 0.70
	coverageMax    = 1.10
	coverageMinCPU = 1.0 // seconds
)

// serverProfile is one cardsd's CPU profile and the CPU /proc measured
// around it.
type serverProfile struct {
	prof *cpuProfile
	cpuS float64
	err  error
}

// runTraced measures the per-layer metrics: an untraced phase (the
// baseline for the tracing overhead and the tax), then a traced phase
// on a fresh far tier with timing shims, CPU profiles of both
// processes, and /proc and /metrics readings of the fleet taken before
// and after.
func runTraced(w workload, o options) (*report, error) {
	r := &report{Correct: true}
	half := o.seconds / 2

	// Untraced phase.
	_, compileS, c, t, err := setup(w, o, setupReps, nil)
	if err != nil {
		return nil, err
	}
	base, err := t.scrapeAll()
	if err != nil {
		t.close()
		return nil, err
	}
	untr := runFor(c, t.store, w.budget, timedFor(half, minExecs), nil)
	after, err := t.scrapeAll()
	t.close()
	if err != nil {
		return nil, err
	}
	untrShape := shapeOf(untr, after.sub(base))

	// Traced phase, on a fresh fleet: the replicated store's epochs live
	// in the client, so a second client must not reuse a fleet.
	rec := newRecorder()
	_, _, c, t, err = setup(w, o, 1, rec)
	if err != nil {
		return nil, err
	}
	defer t.close()
	warm := runFor(c, t.store, w.budget, func(int) bool { return false }, nil)
	if !rec.quiesce(10 * time.Second) {
		return nil, fmt.Errorf("far-tier calls still in flight 10s after the warm-up")
	}
	rec.reset()
	tr, ph, err := tracedPhase(c, t, w, rec, max(1, int(math.Round(half))))
	if err != nil {
		return nil, err
	}

	done := rec.region("oracle")
	sum, inprocS, err := oracle(c, w.budget, oracleReps)
	done()
	if err != nil {
		return nil, err
	}

	// Correctness and consistency.
	for _, p := range []struct {
		name  string
		execs []execResult
	}{{"untraced", untr}, {"traced warm-up", warm}, {"traced", tr}} {
		if a := account(p.execs, sum); a.mismatches > 0 {
			r.fail("%s phase: %d of %d executions failed: %v", p.name, a.mismatches, len(p.execs), a.firstErr)
		}
	}
	trShape := shapeOf(tr, ph.fleet)
	checkShape(r, w, "untraced", untrShape)
	checkShape(r, w, "traced", trShape)
	if trShape != untrShape {
		r.fail("traced run's op shape %v differs from the untraced run's %v", trShape, untrShape)
	}
	checkServerAccounting(r, w, tr, ph.fleet)
	checkCoverage(r, "client", ph.clientProf.totalS(), ph.clientCPU)
	for i, sp := range ph.servers {
		checkCoverage(r, fmt.Sprintf("server %d", i), sp.prof.totalS(), sp.cpuS)
	}

	all := append(append(append([]execResult(nil), untr...), warm...), tr...)
	acc := account(all, sum)
	r.Attempted, r.Failed = acc.attempted, acc.failed
	untrRunS := median(timedRunS(untr))
	layerMetrics(r, w, c, layerInputs{
		compileS: compileS, inprocS: inprocS, untrRunS: untrRunS,
		traced: tr, phase: ph, trace: rec.snapshot(), failedFrac: acc.failedFrac(),
	})
	if o.spans != "" {
		if err := rec.writeChrome(o.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", o.spans)
	}
	return r, nil
}

// phaseReadings are the outside-in readings taken around the traced
// executions.
type phaseReadings struct {
	fleet        exposition // summed /metrics delta
	serverCPU    float64    // summed CPU delta
	serverSysR   uint64
	serverSysW   uint64
	serverHWMKiB uint64
	servers      []serverProfile
	clientProf   *cpuProfile
	clientCPU    float64 // over the client profile's window
	clientSys    uint64
	clientGC     float64
}

// tracedPhase runs traced executions while every cardsd is being
// profiled for profSeconds, with the client profiled over the same
// executions.
func tracedPhase(c *core.Compiled, t *tier, w workload, rec *recorder, profSeconds int) ([]execResult, phaseReadings, error) {
	var ph phaseReadings
	before, err := t.scrapeAll()
	if err != nil {
		return nil, ph, err
	}
	procBefore, err := t.procAll()
	if err != nil {
		return nil, ph, err
	}
	selfBefore, err := readProc("self")
	if err != nil {
		return nil, ph, err
	}
	gcBefore := gcCPU()

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(profSeconds+60)*time.Second)
	defer cancel()
	ph.servers = make([]serverProfile, len(t.servers))
	results := make(chan struct{}, len(t.servers))
	for i := range t.servers {
		go func(i int) {
			defer func() { results <- struct{}{} }()
			pid := t.servers[i].pid()
			b, err := readProc(pid)
			if err != nil {
				ph.servers[i].err = err
				return
			}
			p, err := t.profileServer(ctx, i, profSeconds)
			a, err2 := readProc(pid)
			if err == nil {
				err = err2
			}
			ph.servers[i] = serverProfile{prof: p, cpuS: a.cpuS - b.cpuS, err: err}
		}(i)
	}
	var buf bytes.Buffer
	cpu0 := clientCPU()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, ph, err
	}
	var execs []execResult
	finished := 0
	for finished < len(t.servers) || len(execs) < 1 {
		done := rec.region("run")
		e := execute(c, t.store, w.budget)
		done()
		execs = append(execs, e)
		if e.err != nil {
			break
		}
		// Count profiles that have come back without blocking.
		for drained := false; !drained; {
			select {
			case <-results:
				finished++
			default:
				drained = true
			}
		}
	}
	pprof.StopCPUProfile()
	ph.clientCPU = clientCPU() - cpu0
	for ; finished < len(t.servers); finished++ {
		<-results
	}
	for i, sp := range ph.servers {
		if sp.err != nil {
			return nil, ph, fmt.Errorf("profiling server %d: %w", i, sp.err)
		}
	}
	if ph.clientProf, err = parseProfile(buf.Bytes()); err != nil {
		return nil, ph, fmt.Errorf("client profile: %w", err)
	}
	if !rec.quiesce(10 * time.Second) {
		return nil, ph, fmt.Errorf("far-tier calls still in flight 10s after the traced phase")
	}
	ph.clientGC = gcCPU() - gcBefore
	selfAfter, err := readProc("self")
	if err != nil {
		return nil, ph, err
	}
	ph.clientSys = (selfAfter.syscr + selfAfter.syscw) - (selfBefore.syscr + selfBefore.syscw)
	procAfter, err := t.procAll()
	if err != nil {
		return nil, ph, err
	}
	for i := range procAfter {
		ph.serverCPU += procAfter[i].cpuS - procBefore[i].cpuS
		ph.serverSysR += procAfter[i].syscr - procBefore[i].syscr
		ph.serverSysW += procAfter[i].syscw - procBefore[i].syscw
		ph.serverHWMKiB += procAfter[i].hwmKiB
	}
	afterExp, err := t.scrapeAll()
	if err != nil {
		return nil, ph, err
	}
	ph.fleet = afterExp.sub(before)
	return execs, ph, nil
}

// checkCoverage fails the report when a profile's samples do not
// account for the process CPU measured over its window.
func checkCoverage(r *report, who string, profS, cpuS float64) {
	if cpuS < coverageMinCPU {
		return
	}
	if cov := profS / cpuS; cov < coverageMin || cov > coverageMax {
		r.fail("%s CPU profile covers %.3fs of %.3fs measured (%.2f, outside [%.2f, %.2f])",
			who, profS, cpuS, cov, coverageMin, coverageMax)
	}
}

// checkServerAccounting cross-checks the fleet's served-operation
// counters against what the runtime issued over the traced phase:
// every object read, every write-back times the replication factor,
// every chase program. Reissues after failures may add server work.
func checkServerAccounting(r *report, w workload, execs []execResult, fleet exposition) {
	var reads, writes, chases, slack uint64
	fanout := uint64(max(w.tier.replicas, 1))
	for i := range execs {
		e := &execs[i]
		reads += e.reads()
		writes += e.writeBacks * fanout
		chases += e.stats.ChasesIssued
		slack += (e.stats.StoreRetries + e.stats.WriteBackReissues) * fanout
	}
	check := func(what string, server float64, client uint64) {
		if d := math.Abs(server - float64(client)); d > float64(slack) {
			r.fail("server %s %.0f do not account for the %d the runtime issued (slack %d)", what, server, client, slack)
		}
	}
	check("reads", fleet.family("cards_remote_reads_total"), reads)
	check("writes", fleet.family("cards_remote_writes_total"), writes)
	check("chases", fleet.family("cards_remote_chases_total"), chases)
}
