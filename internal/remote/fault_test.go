package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cards/internal/faultnet"
	"cards/internal/rdma"
	"cards/internal/testutil"
)

// TestSerialClientDeadline: a server that accepts and then never
// replies must not hang a client forever — with a deadline set, the
// handshake round trip returns ErrTimeout (which also matches
// os.ErrDeadlineExceeded).
func TestSerialClientDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn) // swallow the request, never answer
	}()

	start := time.Now()
	c, err := dialSerial(ln.Addr().String(), PipelineOpts{Timeout: 50 * time.Millisecond})
	if err == nil {
		c.Close()
		t.Fatal("dial against a mute server should time out")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, should match os.ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timed out after %v, deadline did not bound the round trip", d)
	}
}

// TestSerialClientRetriesThroughCuts: serial reads (one blocking op at
// a time) retry across injected disconnects and all complete
// correctly.
func TestSerialClientRetriesThroughCuts(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Store.Write(1, 7, []byte{0xAB, 0xCD, 0xEF, 0x01})

	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, faultnet.Config{
		Seed:          11,
		CutEveryBytes: 512, // a few round trips per connection life
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := dialSerial(proxy.Addr(), PipelineOpts{
		Timeout:   time.Second,
		RetryMax:  50,
		RetryBase: time.Millisecond,
		RetryCap:  5 * time.Millisecond,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dst := make([]byte, 4)
	for i := 0; i < 200; i++ {
		if err := c.ReadObj(1, 7, dst); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if dst[0] != 0xAB || dst[3] != 0x01 {
			t.Fatalf("read %d returned corrupt data %x", i, dst)
		}
	}
	if proxy.Cuts() == 0 {
		t.Fatal("proxy never cut the stream; test exercised nothing")
	}
}

// TestSerialClientCRCSurvivesCorruption: every session is checksummed,
// so byte flips on the link surface as transport errors (replayed on a
// fresh conn) instead of desynchronizing the stream into a definitive —
// and fatal — "unexpected op" ERR reply. A flip in the plain-framed
// handshake fails that dial attempt, which retries.
func TestSerialClientCRCSurvivesCorruption(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Store.Write(1, 7, []byte{0xAB, 0xCD, 0xEF, 0x01})

	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, faultnet.Config{
		Seed:        13,
		CorruptProb: 0.05, // one flipped byte per ~20 forwarded chunks
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := dialSerial(proxy.Addr(), PipelineOpts{
		// A short deadline bounds the wedged-stream case: a corrupted
		// length field can leave the server blocked mid-frame.
		Timeout:   300 * time.Millisecond,
		RetryMax:  50,
		RetryBase: time.Millisecond,
		RetryCap:  5 * time.Millisecond,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dst := make([]byte, 4)
	for i := 0; i < 300; i++ {
		if err := c.ReadObj(1, 7, dst); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if dst[0] != 0xAB || dst[3] != 0x01 {
			t.Fatalf("read %d returned corrupt data %x", i, dst)
		}
	}
	if proxy.Corruptions() == 0 {
		t.Fatal("proxy never corrupted a chunk; test exercised nothing")
	}
}

// TestSerialWriteUncertain: a blocking write that dies mid round trip
// must NOT be silently retried — the caller gets ErrUncertainWrite
// wrapping the transport cause, and the reconnected session never
// replays it.
func TestSerialWriteUncertain(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	defer srv.Close()
	cli, hangup := net.Pipe()
	go func() {
		// Answer the handshake, read the write, then hang up without
		// acking.
		if stubHandshake(hangup) == nil {
			rdma.ReadFrameCRC(hangup)
		}
		hangup.Close()
	}()
	var redials atomic.Int32
	c, err := NewPipelined(cli, PipelineOpts{
		Window:   1,
		Timeout:  time.Second,
		RetryMax: 5,
		Redial: func() (io.ReadWriteCloser, error) {
			redials.Add(1)
			a, b := net.Pipe()
			go srv.ServeConn(b)
			return a, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.WriteObj(2, 3, []byte{1, 2, 3, 4})
	if !errors.Is(err, ErrUncertainWrite) {
		t.Fatalf("err = %v, want ErrUncertainWrite", err)
	}
	// The client reconnects for later work, but the uncertain write is
	// the caller's to reissue: the fresh session never carries it.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after reconnect: %v", err)
	}
	if redials.Load() == 0 {
		t.Fatal("client never reconnected")
	}
	if n := srv.Store.Len(); n != 0 {
		t.Fatalf("the uncertain write was replayed onto the fresh session (%d objects stored)", n)
	}
}

// TestPipelinedReconnectReplaysReads drives the pipelined client
// through a chaos proxy that keeps cutting the stream: every read must
// still complete with correct data, transparently replayed across
// reconnects.
func TestPipelinedReconnectReplaysReads(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const objs = 64
	for i := 0; i < objs; i++ {
		srv.Store.Write(1, uint32(i), []byte{byte(i), byte(i ^ 0xFF), byte(i * 3), 0x5A})
	}

	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, faultnet.Config{
		Seed:          23,
		CutEveryBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sc, err := DialPipelined(proxy.Addr(), PipelineOpts{
		Timeout:   2 * time.Second,
		RetryMax:  50,
		RetryBase: time.Millisecond,
		RetryCap:  5 * time.Millisecond,
		Seed:      5,
		Window:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	dst := make([]byte, 4)
	for round := 0; round < 20; round++ {
		for i := 0; i < objs; i++ {
			if err := sc.ReadObj(1, i, dst); err != nil {
				t.Fatalf("round %d read %d: %v", round, i, err)
			}
			if dst[0] != byte(i) || dst[3] != 0x5A {
				t.Fatalf("round %d read %d returned corrupt data %x", round, i, dst)
			}
		}
	}
	if proxy.Cuts() == 0 {
		t.Fatal("proxy never cut the stream; test exercised nothing")
	}
}

// TestPipelinedWriteUncertainOnCut: pipelined writes racing a cut must
// either succeed or surface ErrUncertainWrite — never a silent replay,
// never a hang.
func TestPipelinedWriteUncertainOnCut(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, faultnet.Config{
		Seed:          31,
		CutEveryBytes: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sc, err := DialPipelined(proxy.Addr(), PipelineOpts{
		Timeout:   2 * time.Second,
		RetryMax:  50,
		RetryBase: time.Millisecond,
		RetryCap:  5 * time.Millisecond,
		Window:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	buf := []byte{9, 8, 7, 6}
	var uncertains, acked int
	for i := 0; i < 300; i++ {
		err := sc.WriteObj(3, i%16, buf)
		switch {
		case err == nil:
			acked++
		case errors.Is(err, ErrUncertainWrite):
			uncertains++
		default:
			t.Fatalf("write %d: unexpected error %v", i, err)
		}
	}
	if acked == 0 {
		t.Fatal("no write ever succeeded through the chaos proxy")
	}
	if proxy.Cuts() > 0 && uncertains == 0 {
		t.Logf("note: %d cuts but no uncertain writes (cuts landed between writes)", proxy.Cuts())
	}
}

// TestPipelinedCloseDoorbellRace is the -race regression for Close
// racing the flusher's doorbell write and the reader: hammer reads from
// several goroutines, Close mid-flight, and require every op to
// complete (no hang, no panic, no leaked reader).
func TestPipelinedCloseDoorbellRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		srv := NewServer()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialPipelined(addr, PipelineOpts{Window: 8})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst := make([]byte, 8)
				for i := 0; ; i++ {
					if err := c.ReadObj(g, i%32, dst); err != nil {
						if !errors.Is(err, ErrClientClosed) {
							panic(fmt.Sprintf("iter %d: read failed with %v, want ErrClientClosed", iter, err))
						}
						return
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(iter%5) * time.Millisecond)
		if err := c.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		wg.Wait() // every hammer goroutine observed ErrClientClosed
		srv.Close()
	}
}

// TestPipelinedCloseDuringReconnect: Close while the client is inside
// its redial backoff must abort the reconnect promptly and complete
// everything outstanding with ErrClientClosed.
func TestPipelinedCloseDuringReconnect(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialPipelined(addr, PipelineOpts{
		Timeout:   time.Second,
		RetryMax:  1000,
		RetryBase: 50 * time.Millisecond,
		RetryCap:  50 * time.Millisecond,
		Redial: func() (io.ReadWriteCloser, error) {
			return nil, errors.New("server is gone")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain(10 * time.Millisecond) // kill the server: the client enters its redial loop

	errc := make(chan error, 1)
	go func() {
		dst := make([]byte, 8)
		errc <- c.ReadObj(0, 0, dst)
	}()
	time.Sleep(20 * time.Millisecond) // let the read hit the dead conn
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung while a reconnect was in progress")
	}
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, ErrClientClosed) {
			t.Fatalf("read completed with %v, want nil or ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight read never completed after Close")
	}
}

// TestServerDrain: a drain with nothing in flight reports success and
// leaves the listener closed.
func TestServerDrain(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialPipelined(addr, PipelineOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if !srv.Drain(time.Second) {
		t.Fatal("drain with an idle connection should succeed")
	}
	// The connection was force-closed by the drain; the client notices.
	if err := c.Ping(); err == nil {
		t.Fatal("ping after drain should fail")
	}
	c.Close()
	if _, err := DialPipelined(addr, PipelineOpts{}); err == nil {
		t.Fatal("dial after drain should fail (listener closed)")
	}
}

// TestCRCSessionEndToEnd: the real client and server switch to
// checksummed framing right after the plain-framed handshake and keep
// working — this pins the framing switch on both sides: every frame the
// client sent after the handshake parses as a CRC-trailed frame.
func TestCRCSessionEndToEnd(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	c1, c2 := net.Pipe()
	var mu sync.Mutex
	var sent bytes.Buffer
	go srv.ServeConn(recordConn{Conn: c1, mu: &mu, buf: &sent})
	c, err := NewPipelined(c2, PipelineOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := c.WriteObj(5, 9, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := c.ReadObj(5, 9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("CRC session read back %x, want %x", got, want)
	}
	c.Close()

	mu.Lock()
	defer mu.Unlock()
	r := bytes.NewReader(sent.Bytes())
	if f, err := rdma.ReadFrame(r); err != nil || f.Op != rdma.OpPing {
		t.Fatalf("stream does not open with the plain handshake: %s, %v", f.Op, err)
	}
	var ops []rdma.Op
	for r.Len() > 0 {
		f, err := rdma.ReadFrameCRC(r)
		if err != nil {
			t.Fatalf("frame %d after the handshake is not CRC-framed: %v", len(ops), err)
		}
		ops = append(ops, f.Op)
	}
	if len(ops) != 2 || ops[0] != rdma.OpWriteBatchC || ops[1] != rdma.OpReadBatchC {
		t.Fatalf("session frames = %v, want [WRITEBATCH-C READBATCH-C]", ops)
	}
}

// TestPipelinedWriteOnlyStall is the stall-detector regression for the
// write window: a server that completes the handshake and then goes
// mute leaves a WRITEBATCH-C unacknowledged with nothing in the
// *read* window. The stall detector must count in-flight writes too,
// cut the stream after Timeout, and complete the write with
// ErrUncertainWrite — not wait forever for an ack that will never come.
func TestPipelinedWriteOnlyStall(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				// Answer the handshake so the session comes up, then
				// swallow every frame without replying.
				if stubHandshake(conn) != nil {
					return
				}
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()

	c, err := DialPipelined(ln.Addr().String(), PipelineOpts{
		Timeout:   50 * time.Millisecond,
		RetryMax:  2,
		RetryBase: time.Millisecond,
		RetryCap:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	err = c.WriteObj(1, 2, []byte("stalled write"))
	if err == nil {
		t.Fatal("write against a mute server must not succeed")
	}
	if !errors.Is(err, ErrUncertainWrite) {
		t.Fatalf("err = %v, want ErrUncertainWrite", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("write unblocked only after %v: stall detector ignored the write window", d)
	}
}
