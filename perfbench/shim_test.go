package main

import (
	"testing"

	"cards/internal/farmem"
	"cards/internal/remote"
	"cards/internal/replica"
	"cards/internal/workloads"
)

// startTestServer starts an in-process far-memory server on loopback and
// returns its address; the server closes at test end, after the
// clients the test registered cleanups for (cleanups run last-first).
func startTestServer(t *testing.T) string {
	t.Helper()
	srv := remote.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func dialTest(t *testing.T, addr string) *remote.Resilient {
	t.Helper()
	c, err := remote.DialResilient(addr, remote.DialConfig{Timeout: remoteTimeout, RetryMax: remoteRetries})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// assertSameCaps checks every capability type assertion gives the same
// answer on the shim as on the wrapped value.
func assertSameCaps(t *testing.T, what string, mask uint16, inner, shim any) {
	t.Helper()
	want, got := capsOf(inner)&mask, capsOf(shim)&mask
	if want != got {
		t.Errorf("%s: shim capabilities %s, wrapped %s", what, capString(got), capString(want))
	}
	for i, chk := range capChecks {
		bit := uint16(1) << i
		if mask&bit != 0 && chk.has(inner) != chk.has(shim) {
			t.Errorf("%s: %s on shim = %t, on wrapped = %t", what, chk.name, chk.has(shim), chk.has(inner))
		}
	}
}

// onlyAsync is a store with a capability set no shim type covers.
type onlyAsync struct{ farmem.Store }

func (onlyAsync) IssueRead(ds, idx int, dst []byte, done func(error)) { done(nil) }

func TestShimCapabilities(t *testing.T) {
	addr1, addr2 := startTestServer(t), startTestServer(t)
	rec := newRecorder()

	// Plain in-process store.
	ms := farmem.NewMapStore()
	s, err := wrapStore(rec, ms)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCaps(t, "MapStore", storeCapMask, ms, s)

	// One transport client, as the single-backend workloads use.
	c := dialTest(t, addr1)
	s, err = wrapStore(rec, c)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCaps(t, "Resilient", storeCapMask, c, s)
	if cs, ok := s.(farmem.AsyncChaseStore); !ok || cs.ChaseCapable() != c.ChaseCapable() {
		t.Errorf("shim does not forward ChaseCapable (ok=%t)", ok)
	}

	// The replicated store over shimmed backends.
	var backends []farmem.Store
	for _, a := range []string{addr1, addr2} {
		bc := dialTest(t, a)
		b, err := wrapBackend(rec, bc)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCaps(t, "backend", capsBackend, bc, b)
		backends = append(backends, b)
	}
	rs, err := replica.New(backends, replica.Options{Replicas: 2, BreakerThreshold: breakerThreshold})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	s, err = wrapStore(rec, rs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCaps(t, "replica.Store", storeCapMask, rs, s)

	// A capability set without a shim type is refused, not degraded.
	if _, err := wrapStore(rec, onlyAsync{ms}); err == nil {
		t.Error("wrapStore accepted a store whose capability set has no shim")
	}
	if _, err := wrapBackend(rec, ms); err == nil {
		t.Error("wrapBackend accepted a store without the epoch verbs")
	}
}

// TestShimTracesChases runs the pointer-chase program through a shim
// over a real transport and checks that traversal offload survives the
// wrapping, that every far-tier call became a span under the execution,
// and that the traced execution matches the in-process checksum.
func TestShimTracesChases(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)
	rec := newRecorder()
	s, err := wrapStore(rec, c)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.BuildChase("list", workloads.ChaseConfig{N: 1 << 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	prog := compileTest(t, w.Module)
	sum, _, err := oracle(prog, 8<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := rec.region("run")
	e := execute(prog, s, 8<<10)
	done()
	if e.err != nil || e.checksum != sum {
		t.Fatalf("traced execution: err=%v checksum %#x, oracle %#x", e.err, e.checksum, sum)
	}
	if !rec.quiesce(remoteTimeout) {
		t.Fatal("calls still in flight")
	}
	snap := rec.snapshot()
	chases := snap.tallies[layerStore][opChase]
	if e.stats.ChasesIssued == 0 || chases.asyncCalls != e.stats.ChasesIssued {
		t.Errorf("runtime issued %d chases, shim saw %d async chase calls", e.stats.ChasesIssued, chases.asyncCalls)
	}
	var run span
	for _, sp := range rec.spans {
		if sp.name == "run" {
			run = sp
		}
	}
	for _, sp := range rec.spans {
		if sp.cat == "store" && (sp.parent != run.id || sp.trace != run.id) {
			t.Fatalf("store span %+v not parented to the run span %d", sp, run.id)
		}
	}
}
