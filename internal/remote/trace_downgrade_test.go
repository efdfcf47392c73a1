package remote

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/testutil"
)

// recordConn tees everything the client sends into a shared buffer, so
// the test can compare the session's exact wire bytes afterwards.
type recordConn struct {
	net.Conn
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (r recordConn) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	if n > 0 {
		r.mu.Lock()
		r.buf.Write(p[:n])
		r.mu.Unlock()
	}
	return n, err
}

// preTraceListener starts a server that does not grant FeatTrace — as
// a deployment with tracing disabled answers — and records every byte
// its clients send; returns the address, the capture, and the live
// server-side conns (for the test to cut).
func preTraceListener(t *testing.T) (addr string, mu *sync.Mutex, capture *bytes.Buffer, conns *[]io.ReadWriteCloser) {
	t.Helper()
	srv := NewServer()
	srv.features &^= rdma.FeatTrace
	srv.Store.Write(1, 7, []byte{0xAB, 0xCD})
	mu = &sync.Mutex{}
	capture = &bytes.Buffer{}
	conns = &[]io.ReadWriteCloser{}
	srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		rc := recordConn{Conn: c.(net.Conn), mu: mu, buf: capture}
		mu.Lock()
		*conns = append(*conns, rc)
		mu.Unlock()
		return rc
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, mu, capture, conns
}

// TestPipelinedTraceDowngradeAgainstPreTraceServer pins the one
// negotiation that can downgrade a session: a trace-enabled pipelined
// client always asks for FeatTrace, but a server that does not grant it
// leaves it out of the handshake reply — the session must downgrade to
// ext-free framing and keep working, a forced disconnect must
// renegotiate to the same downgrade on the fresh stream, and every
// frame the downgraded client sends must be byte-identical to what a
// client with tracing never configured sends for the same ops.
func TestPipelinedTraceDowngradeAgainstPreTraceServer(t *testing.T) {
	testutil.NoGoroutineLeaks(t)

	tracedAddr, tracedMu, tracedCap, tracedConns := preTraceListener(t)
	plainAddr, plainMu, plainCap, _ := preTraceListener(t)

	// The traced client has a live sampled root active while it works:
	// the downgrade itself — not the absence of a trace to carry — must
	// be what keeps the frames ext-free.
	hub := obs.NewTraceHub(obs.NewTracer(0), obs.NewFlightRecorder(0, 0), obs.SampleAll)
	hub.SetActive(hub.StartTrace())
	defer hub.ClearActive()

	opts := PipelineOpts{
		Timeout:   time.Second,
		RetryMax:  4,
		RetryBase: 5 * time.Millisecond,
	}
	topts := opts
	topts.Trace = hub
	traced, err := DialPipelined(tracedAddr, topts)
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	plain, err := DialPipelined(plainAddr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	if traced.featReq&rdma.FeatTrace == 0 {
		t.Fatal("trace-enabled client should request FeatTrace on every negotiation")
	}
	if plain.featReq&rdma.FeatTrace != 0 {
		t.Fatal("control client must not request FeatTrace")
	}
	sessionTrace := func(c *PipelinedClient) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.trace
	}
	if sessionTrace(traced) {
		t.Fatal("server did not grant FeatTrace: session must downgrade")
	}

	// The same op sequence on both clients, one op at a time so each op
	// is exactly one wire frame and the two streams stay comparable.
	chase := func(c *PipelinedClient) {
		t.Helper()
		buf := make([]byte, 2)
		if err := c.ReadObj(1, 7, buf); err != nil || buf[0] != 0xAB || buf[1] != 0xCD {
			t.Fatalf("downgraded session read = %x, %v", buf, err)
		}
		if err := c.WriteObj(1, 8, []byte{0x11, 0x22, 0x33}); err != nil {
			t.Fatalf("downgraded session write: %v", err)
		}
		one := make([]byte, 3)
		if err := c.ReadObj(1, 8, one); err != nil || one[0] != 0x11 {
			t.Fatalf("read-back = %x, %v", one, err)
		}
	}
	chase(traced)
	chase(plain)

	// Byte-exactness: past the handshake PING (whose payload legitimately
	// differs by the FeatTrace bit), the downgraded session's wire bytes
	// are identical to the never-traced session's. Every op above was
	// acknowledged, so both captures are complete.
	tracedMu.Lock()
	tracedBytes := append([]byte(nil), tracedCap.Bytes()...)
	tracedMu.Unlock()
	plainMu.Lock()
	plainBytes := append([]byte(nil), plainCap.Bytes()...)
	plainMu.Unlock()
	tracedOps := skipFirstFrame(t, tracedBytes)
	plainOps := skipFirstFrame(t, plainBytes)
	if !bytes.Equal(tracedOps, plainOps) {
		t.Fatalf("downgraded session not byte-exact with untraced framing:\n traced %x\n plain  %x",
			tracedOps, plainOps)
	}

	// Kill the server side: the next read breaks, redials, and
	// renegotiates with the full ask — landing on the same downgrade.
	tracedMu.Lock()
	for _, c := range *tracedConns {
		c.Close()
	}
	*tracedConns = (*tracedConns)[:0]
	tracedMu.Unlock()
	buf := make([]byte, 2)
	if err := traced.ReadObj(1, 7, buf); err != nil {
		t.Fatalf("read after forced disconnect should retry through redial: %v", err)
	}
	if buf[0] != 0xAB || buf[1] != 0xCD {
		t.Fatalf("post-redial read = %x", buf)
	}
	if sessionTrace(traced) {
		t.Fatal("renegotiation against the same server must downgrade again")
	}
	if traced.featReq&rdma.FeatTrace == 0 {
		t.Fatal("the downgrade must not clear the per-connection trace ask")
	}
}

// skipFirstFrame drops the leading plain-framed handshake PING from a
// captured client stream: u32 payloadLen | u8 op | payload (untagged).
func skipFirstFrame(t *testing.T, b []byte) []byte {
	t.Helper()
	if len(b) < 5 {
		t.Fatalf("capture too short for a handshake ping: %d bytes", len(b))
	}
	n := 5 + int(binary.LittleEndian.Uint32(b))
	if op := rdma.Op(b[4]); op != rdma.OpPing {
		t.Fatalf("capture does not start with PING: op %s", op)
	}
	if len(b) < n {
		t.Fatalf("truncated handshake ping: %d of %d bytes", len(b), n)
	}
	return b[n:]
}
