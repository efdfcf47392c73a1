package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"cards/internal/obs"
)

// TestServerObsConcurrent drives a shared Server from many concurrent
// connections, each served by its own goroutine, all emitting into one
// registry and one small ring tracer. Run under -race this is the
// satellite coverage for concurrent Tracer.Emit from the remote server's
// per-connection goroutines.
func TestServerObsConcurrent(t *testing.T) {
	const (
		conns    = 8
		perConn  = 200
		traceCap = 64 // far smaller than conns*perConn: forces drops
	)
	tr := obs.NewTracer(traceCap)
	reg := obs.NewRegistry()
	srv := NewServerWith(reg, tr)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialPipelined(addr, PipelineOpts{})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			buf := make([]byte, 64)
			for i := 0; i < perConn; i++ {
				if err := cl.WriteObj(c, i, []byte(fmt.Sprintf("obj-%d-%d", c, i))); err != nil {
					errs <- err
					return
				}
				if err := cl.ReadObj(c, i, buf); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The server settles the inflight gauge and the span of a request
	// after its reply leaves; drain it so the snapshot sees them all.
	if !srv.Drain(5 * time.Second) {
		t.Fatal("server did not drain")
	}

	const total = conns * perConn
	if r, w := srv.Counts(); r != total || w != total {
		t.Fatalf("Counts() = (%d, %d), want (%d, %d)", r, w, total, total)
	}
	snap := srv.ObsSnapshot()
	if got := snap.Counter(MetricReads); got != total {
		t.Errorf("%s = %d, want %d", MetricReads, got, total)
	}
	if got := snap.Histogram(MetricReadNS).Count; got != total {
		t.Errorf("%s count = %d, want %d", MetricReadNS, got, total)
	}
	if got := snap.Histogram(MetricWriteNS).Count; got != total {
		t.Errorf("%s count = %d, want %d", MetricWriteNS, got, total)
	}
	if got := snap.Gauge(MetricResidentObjects); got != total {
		t.Errorf("%s = %d, want %d", MetricResidentObjects, got, total)
	}
	if got := snap.Gauge(MetricInflight); got != 0 {
		t.Errorf("%s = %d after drain, want 0", MetricInflight, got)
	}
	if got := snap.Counter(MetricBytesIn); got == 0 {
		t.Error("no wire bytes counted in")
	}

	// Every request emitted exactly one span — each blocking op is its
	// own batch, and each connection's handshake adds one; the tiny ring
	// kept the first traceCap and dropped (without blocking) the rest.
	if kept, drops := tr.Len(), tr.Drops(); kept != traceCap || kept+int(drops) != 2*total+conns {
		t.Fatalf("ring kept %d dropped %d, want %d kept and %d total",
			kept, drops, traceCap, 2*total+conns)
	}
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != traceCap {
		t.Fatalf("exported %d events, want %d", len(doc.TraceEvents), traceCap)
	}
	for _, ev := range doc.TraceEvents {
		if ev["cat"] != "remote" {
			t.Fatalf("unexpected category %v", ev["cat"])
		}
	}
}

// TestClientObs checks the client-side mirror series.
func TestClientObs(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	cl, err := DialPipelined(addr, PipelineOpts{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteObj(1, 2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 5)
	if err := cl.ReadObj(1, 2, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "hello" {
		t.Fatalf("read back %q", dst)
	}
	// The liveness probe rides the read window as an empty read, so it
	// lands in the read histogram next to the real read.
	snap := reg.Snapshot()
	for m, want := range map[string]uint64{MetricClientReadNS: 2, MetricClientWriteNS: 1} {
		if got := snap.Histogram(m).Count; got != want {
			t.Errorf("%s count = %d, want %d", m, got, want)
		}
	}
	if snap.Counter(MetricBytesOut) == 0 || snap.Counter(MetricBytesIn) == 0 {
		t.Error("client wire byte counters empty")
	}
}
