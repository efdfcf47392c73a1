package main

import (
	"fmt"
	"runtime"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/interp"
	"cards/internal/policy"
)

// execResult is one execution of a compiled program.
type execResult struct {
	runS       float64
	checksum   uint64
	err        error
	stats      farmem.RuntimeStats
	instr      uint64
	writeBacks uint64 // full and range write-backs, sync and staged
	prefetches uint64 // prefetch issues, chase programs included
	pfHits     uint64
}

// reads is the number of object reads the execution sent to the far
// tier: demand fetches plus prefetches (chase programs excepted).
func (e *execResult) reads() uint64 {
	return e.stats.RemoteFetches + e.prefetches - e.stats.ChasesIssued
}

// attempted is the number of far-tier operations the execution
// issued: fetches (demand and prefetch), write-backs and chases.
func (e *execResult) attempted() uint64 {
	return e.stats.RemoteFetches + e.prefetches + e.writeBacks
}

// failed counts the operations of the execution that failed: those the
// degraded runtime refused, or every operation when the execution
// errored or its checksum differs from the oracle's.
func (e *execResult) failed(oracle uint64) uint64 {
	if e.err != nil || e.checksum != oracle {
		return max(e.attempted(), 1)
	}
	return e.stats.DegradedOps
}

// execute runs the compiled program once on a fresh runtime over store
// and times it, the final write-back drain included. A garbage
// collection before the clock starts gives every execution the same
// heap to begin with, so run times and peak memory do not depend on
// how much garbage the previous execution left. Every execution
// uses the runtime settings cards.New derives from cards.Config{} for a
// remote tier (retries 6, breaker 8, range write-back off) and the
// AllRemotable policy with budget bytes of remotable cache.
func execute(c *core.Compiled, store farmem.Store, budget uint64) execResult {
	runtime.GC()
	start := time.Now()
	rt, _, err := c.NewRuntime(core.RunConfig{
		Policy:           policy.AllRemotable,
		RemotableBudget:  budget,
		Store:            store,
		RetryMax:         remoteRetries,
		BreakerThreshold: breakerThreshold,
	})
	if err != nil {
		return execResult{err: err}
	}
	var res execResult
	mach, err := interp.New(c.Module, rt, interp.Options{})
	if err == nil {
		res.checksum, err = mach.Run()
		res.instr = mach.Stats().Instructions
	}
	if cerr := rt.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("final write-back drain: %w", cerr)
	}
	res.runS = time.Since(start).Seconds()
	res.err = err
	res.stats = rt.Stats()
	for i := 0; i < rt.NumDS(); i++ {
		d := rt.DSByID(i).Stats()
		res.writeBacks += d.WriteBacks
		res.prefetches += d.PrefetchIssued
		res.pfHits += d.PrefetchHits
	}
	return res
}

// accounting sums the failure accounting of a set of executions
// against the oracle checksum.
type accounting struct {
	attempted, failed uint64
	mismatches        int
	firstErr          error
}

func account(execs []execResult, oracle uint64) accounting {
	var a accounting
	for i := range execs {
		e := &execs[i]
		a.attempted += max(e.attempted(), 1)
		a.failed += e.failed(oracle)
		if e.err != nil || e.checksum != oracle {
			a.mismatches++
			if a.firstErr == nil {
				a.firstErr = e.err
				if e.err == nil {
					a.firstErr = fmt.Errorf("checksum %#x != oracle %#x", e.checksum, oracle)
				}
			}
		}
	}
	return a
}

func (a accounting) failedFrac() float64 { return ratio(float64(a.failed), float64(a.attempted)) }

// runFor executes the program repeatedly: one warm-up execution, then
// timed executions while more(number timed so far) holds, stopping at
// the first error. The warm-up is returned first. wrap, when non-nil,
// surrounds each timed execution (the traced run opens a span per
// execution).
func runFor(c *core.Compiled, store farmem.Store, budget uint64, more func(timed int) bool, wrap func(func())) []execResult {
	out := []execResult{execute(c, store, budget)}
	for out[len(out)-1].err == nil && more(len(out)-1) {
		var r execResult
		exec := func() { r = execute(c, store, budget) }
		if wrap != nil {
			wrap(exec)
		} else {
			exec()
		}
		out = append(out, r)
	}
	return out
}

// timedFor is the usual stopping rule: at least minExecs timed
// executions, and until seconds have passed.
func timedFor(seconds float64, minExecs int) func(int) bool {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	return func(n int) bool { return n < minExecs || time.Now().Before(deadline) }
}
