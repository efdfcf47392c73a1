package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
)

// stubHandshake answers a client's version handshake on a hand-rolled
// server, granting no negotiable features. Every frame after it is
// CRC-trailed.
func stubHandshake(conn io.ReadWriter) error {
	f, err := rdma.ReadFrame(conn)
	if err != nil {
		return err
	}
	if f.Op != rdma.OpPing {
		return fmt.Errorf("want handshake PING, got %s", f.Op)
	}
	return rdma.WriteFrame(conn, rdma.Hello(rdma.OpOK, 0))
}

// dialSerial dials the serial access shape: a Window: 1 client whose
// callers make one blocking call at a time — the baseline the pipeline
// sweep's "serial" row measures.
func dialSerial(addr string, opts PipelineOpts) (*PipelinedClient, error) {
	opts.Window = 1
	return DialPipelined(addr, opts)
}

func startPipelined(t *testing.T, opts PipelineOpts) (*Server, *PipelinedClient) {
	t.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialPipelined(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestPipelinedReadWrite(t *testing.T) {
	srv, cl := startPipelined(t, PipelineOpts{})
	data := []byte("pipelined far memory")
	if err := cl.WriteObj(3, 7, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := cl.ReadObj(3, 7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("roundtrip = %q", buf)
	}
	// Absent object reads as zeros.
	zeros := make([]byte, 8)
	if err := cl.ReadObj(9, 9, zeros); err != nil {
		t.Fatal(err)
	}
	for _, b := range zeros {
		if b != 0 {
			t.Fatal("absent object should read zero")
		}
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if srv.Store.Len() != 1 {
		t.Fatalf("store len = %d", srv.Store.Len())
	}
}

func TestPipelinedOverPipe(t *testing.T) {
	srv := NewServer()
	c1, c2 := net.Pipe()
	go srv.ServeConn(c1)
	cl, err := NewPipelined(c2, PipelineOpts{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WriteObj(1, 1, []byte{42}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := cl.ReadObj(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Fatalf("readback = %d", buf[0])
	}
}

func TestPipelinedManyAsyncReads(t *testing.T) {
	srv, cl := startPipelined(t, PipelineOpts{Window: 16, MaxBatch: 4})
	const n = 200
	for i := 0; i < n; i++ {
		srv.Store.Write(1, uint32(i), []byte{byte(i), byte(i >> 8)})
	}
	dsts := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		dsts[i] = make([]byte, 2)
		cl.IssueRead(1, i, dsts[i], func(err error) {
			errs[i] = err
			wg.Done()
		})
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("read %d: %v", i, errs[i])
		}
		if dsts[i][0] != byte(i) || dsts[i][1] != byte(i>>8) {
			t.Fatalf("read %d = %v", i, dsts[i])
		}
	}
}

func TestPipelinedMixedReadWrite(t *testing.T) {
	_, cl := startPipelined(t, PipelineOpts{Window: 8, MaxBatch: 3})
	// Interleave writes and reads so the flusher alternates WRITEBATCH-C
	// frames with READBATCH-C runs; read-your-write holds because
	// WriteObj blocks until the ack.
	for i := 0; i < 50; i++ {
		data := []byte{byte(i), 0xAB}
		if err := cl.WriteObj(2, i, data); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2)
		if err := cl.ReadObj(2, i, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("readback %d = %v", i, buf)
		}
	}
}

// TestPipelinedOutOfOrderCompletions hand-crafts a batch-capable server
// that answers two read batches in reverse order: the tag demux must
// route each completion to the right caller.
func TestPipelinedOutOfOrderCompletions(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			if err := stubHandshake(c1); err != nil {
				return err
			}
			// Collect two single-read batches, then answer in REVERSE.
			var frames []rdma.Frame
			for len(frames) < 2 {
				f, err := rdma.ReadFrameCRC(c1)
				if err != nil {
					return err
				}
				if f.Op != rdma.OpReadBatchC {
					return errors.New("want READBATCH-C")
				}
				frames = append(frames, f)
			}
			var b rdma.DataBatchCBuilder
			defer b.Release()
			for i := len(frames) - 1; i >= 0; i-- {
				reqs, err := rdma.DecodeReadBatchCInto(frames[i].Payload, nil)
				if err != nil {
					return err
				}
				b.Reset()
				for _, r := range reqs {
					b.Add([]byte{byte(r.Idx)}, false)
				}
				resp, err := b.Frame(frames[i].Tag)
				if err != nil {
					return err
				}
				if err := rdma.WriteFrameCRC(c1, resp); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	// MaxBatch 1 forces each read into its own batch frame.
	cl, err := NewPipelined(c2, PipelineOpts{Window: 2, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	dsts := [2][]byte{make([]byte, 1), make([]byte, 1)}
	errs := [2]error{}
	wg.Add(2)
	for i := 0; i < 2; i++ {
		i := i
		cl.IssueRead(0, 10+i, dsts[i], func(err error) {
			errs[i] = err
			wg.Done()
		})
	}
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("read %d: %v", i, errs[i])
		}
		if dsts[i][0] != byte(10+i) {
			t.Fatalf("read %d routed wrong payload %d", i, dsts[i][0])
		}
	}
}

// legacyServe answers like a version-1 server built before batching:
// an empty OK to every PING (ignoring any payload), serial READ/WRITE,
// no tagged verbs. It counts the data verbs it serves.
func legacyServe(conn net.Conn, store *ObjectStore, served *int32) {
	defer conn.Close()
	for {
		f, err := rdma.ReadFrame(conn)
		if err != nil {
			return
		}
		resp := rdma.ErrFrame("unexpected op")
		switch f.Op {
		case rdma.OpPing:
			resp = rdma.Frame{Op: rdma.OpOK}
		case 1, 2: // READ, WRITE
			atomic.AddInt32(served, 1)
		}
		if rdma.WriteFrame(conn, resp) != nil {
			return
		}
	}
}

// TestPipelinedRefusesLegacyServer: a version-1 server answers the
// handshake PING with an empty OK. There is no fallback client any
// more: the dial fails with ErrProtocolVersion — directly, and through
// DialResilient once its retry budget is spent — and no data verb ever
// reaches the peer.
func TestPipelinedRefusesLegacyServer(t *testing.T) {
	store := NewObjectStore()
	var served, conns int32
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
			atomic.AddInt32(&conns, 1)
			go legacyServe(conn, store, &served)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := NewPipelined(conn, PipelineOpts{}); !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("handshake with a legacy server = %v, want ErrProtocolVersion", err)
	}
	if _, err := DialPipelined(ln.Addr().String(), PipelineOpts{}); !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("DialPipelined = %v, want ErrProtocolVersion", err)
	}
	const retries = 3
	if _, err := DialResilient(ln.Addr().String(), DialConfig{
		Timeout: time.Second, RetryMax: retries, RetryBase: time.Millisecond,
	}); !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("DialResilient = %v, want ErrProtocolVersion", err)
	}
	if got, want := atomic.LoadInt32(&conns), int32(2+retries+1); got != want {
		t.Fatalf("legacy server saw %d connections, want %d (one per dial attempt)", got, want)
	}
	if n := atomic.LoadInt32(&served); n != 0 {
		t.Fatalf("legacy server served %d data verbs", n)
	}
}

// TestDialRejectsWrongVersion: a server whose handshake reply carries
// another protocol version is refused with ErrProtocolVersion, and
// DialResilient retries it under the dial budget — the same path a
// handshake garbled in transit takes — before giving up with it.
func TestDialRejectsWrongVersion(t *testing.T) {
	var attempts int32
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
				if _, err := rdma.ReadFrame(conn); err != nil {
					return
				}
				atomic.AddInt32(&attempts, 1)
				reply := rdma.Hello(rdma.OpOK, 0)
				binary.LittleEndian.PutUint32(reply.Payload, rdma.ProtocolVersion+1)
				rdma.WriteFrame(conn, reply)
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()

	if _, err := DialPipelined(ln.Addr().String(), PipelineOpts{}); !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("DialPipelined = %v, want ErrProtocolVersion", err)
	}
	const retries = 4
	_, err = DialResilient(ln.Addr().String(), DialConfig{
		Timeout: time.Second, RetryMax: retries, RetryBase: time.Millisecond,
	})
	if !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("DialResilient = %v, want ErrProtocolVersion", err)
	}
	if got := atomic.LoadInt32(&attempts); got != 1+retries+1 {
		t.Fatalf("server saw %d handshakes, want %d (1 + the resilient dial's %d attempts)", got, 2+retries, 1+retries)
	}
}

// TestServerRefusesWrongVersion: the server answers a PING of another
// version — and the bare feature mask of a version-1 client — with ERR
// and closes that connection, while its other sessions keep serving.
func TestServerRefusesWrongVersion(t *testing.T) {
	srv, cl := startPipelined(t, PipelineOpts{})
	addr := srv.ln.Addr().String()
	if err := cl.WriteObj(1, 1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	wrong := rdma.Hello(rdma.OpPing, 0)
	binary.LittleEndian.PutUint32(wrong.Payload, rdma.ProtocolVersion+7)
	v1 := rdma.Frame{Op: rdma.OpPing, Payload: []byte{0xFF, 0, 0, 0}}
	for _, ping := range []rdma.Frame{wrong, v1, {Op: rdma.OpPing}} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := rdma.WriteFrame(conn, ping); err != nil {
			t.Fatal(err)
		}
		resp, err := rdma.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Op != rdma.OpErr || !strings.Contains(string(resp.Payload), "version") {
			t.Fatalf("wrong-version ping answered %s %q, want ERR about the version", resp.Op, resp.Payload)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := rdma.ReadFrame(conn); !errors.Is(err, io.EOF) {
			t.Fatalf("connection after a refused handshake: %v, want EOF", err)
		}
		conn.Close()
		// The established session is unaffected.
		buf := make([]byte, 1)
		if err := cl.ReadObj(1, 1, buf); err != nil || buf[0] != 9 {
			t.Fatalf("other session after refusal: %v, %v", buf, err)
		}
	}
	if got := srv.ObsSnapshot().Counter(MetricErrors); got != 3 {
		t.Fatalf("%s = %d, want 3 refused handshakes", MetricErrors, got)
	}
}

// TestServerRejectsDeletedOpcodes: on an established session every verb
// of the version-1 protocol is answered with a definitive ERR (ERRTAG
// for tagged opcodes, same tag) naming it unexpected, and the session
// keeps serving.
func TestServerRejectsDeletedOpcodes(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Store.Write(2, 3, []byte{0x77})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := rdma.WriteFrame(conn, rdma.Hello(rdma.OpPing, 0)); err != nil {
		t.Fatal(err)
	}
	if resp, err := rdma.ReadFrame(conn); err != nil || resp.Op != rdma.OpOK {
		t.Fatalf("handshake = %s, %v", resp.Op, err)
	}
	deleted := []rdma.Op{1, 2, 4, rdma.TagBit | 0x01, rdma.TagBit | 0x02, rdma.TagBit | 0x03,
		rdma.TagBit | 0x04, rdma.TagBit | 0x06, rdma.TagBit | 0x07, rdma.TagBit | 0x08}
	for i, op := range deleted {
		req := rdma.Frame{Op: op, Payload: make([]byte, 12)}
		want := rdma.OpErr
		if op.Tagged() {
			req.Tag, want = uint32(100+i), rdma.OpErrTag
		}
		if err := rdma.WriteFrameCRC(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := rdma.ReadFrameCRC(conn)
		if err != nil {
			t.Fatalf("op %d: %v", uint8(op), err)
		}
		if resp.Op != want || resp.Tag != req.Tag || !strings.Contains(string(resp.Payload), "unexpected op") {
			t.Fatalf("op %d answered %s tag %d %q", uint8(op), resp.Op, resp.Tag, resp.Payload)
		}
	}
	// The session survived: a compact read still works.
	if err := rdma.WriteFrameCRC(conn, rdma.EncodeReadBatchCPooled(7, []rdma.ReadReq{{DS: 2, Idx: 3, Size: 1}})); err != nil {
		t.Fatal(err)
	}
	resp, err := rdma.ReadFrameCRC(conn)
	if err != nil || resp.Op != rdma.OpDataBatchC || resp.Tag != 7 {
		t.Fatalf("read after rejections = %s tag %d, %v", resp.Op, resp.Tag, err)
	}
	segs, err := rdma.DecodeDataBatchCInto(resp.Payload, nil)
	if err != nil || len(segs) != 1 || len(segs[0].Data) != 1 || segs[0].Data[0] != 0x77 {
		t.Fatalf("read after rejections returned %+v, %v", segs, err)
	}
}

// TestLegacyClientAgainstNewServer covers the other interop direction:
// a version-1 serial client opens with a bare READ (no handshake). The
// server answers ERR, closes that connection, and keeps serving others.
func TestLegacyClientAgainstNewServer(t *testing.T) {
	srv, cl := startPipelined(t, PipelineOpts{})
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	read := rdma.Frame{Op: 1, Payload: make([]byte, 12)} // version-1 READ
	if err := rdma.WriteFrame(conn, read); err != nil {
		t.Fatal(err)
	}
	resp, err := rdma.ReadFrame(conn)
	if err != nil || resp.Op != rdma.OpErr {
		t.Fatalf("legacy READ answered %s %q, %v; want ERR", resp.Op, resp.Payload, err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rdma.ReadFrame(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("legacy connection after ERR: %v, want EOF", err)
	}
	if err := cl.WriteObj(0, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedPerRequestServerError(t *testing.T) {
	_, cl := startPipelined(t, PipelineOpts{})
	// A read whose reply would exceed the frame limit is rejected by the
	// server with a tagged error — and only that request fails.
	huge := make([]byte, rdma.MaxFrame)
	if err := cl.ReadObj(0, 0, huge); err == nil {
		t.Fatal("oversized batch reply should fail")
	}
	// The client survives: later operations still work.
	if err := cl.WriteObj(0, 1, []byte{7}); err != nil {
		t.Fatalf("client broken after per-request error: %v", err)
	}
	buf := make([]byte, 1)
	if err := cl.ReadObj(0, 1, buf); err != nil || buf[0] != 7 {
		t.Fatalf("readback = %v, %v", buf, err)
	}
}

func TestPipelinedCloseUnblocksInflight(t *testing.T) {
	// A server that negotiates features, then goes silent: in-flight and
	// queued operations must be failed by Close, not stuck forever.
	c1, c2 := net.Pipe()
	defer c1.Close()
	go func() {
		if stubHandshake(c1) != nil {
			return
		}
		// Swallow whatever arrives, never reply.
		io.Copy(io.Discard, c1)
	}()
	cl, err := NewPipelined(c2, PipelineOpts{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8 // more than the window: some queued, some in flight
	res := make(chan error, n)
	for i := 0; i < n; i++ {
		cl.IssueRead(0, i, make([]byte, 4), func(err error) { res <- err })
	}
	closed := make(chan struct{})
	go func() {
		cl.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked behind a silent server")
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-res:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("completion %d = %v, want ErrClientClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight op never completed after Close")
		}
	}
	// Post-close issues fail immediately.
	if err := cl.ReadObj(0, 0, make([]byte, 1)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close read = %v", err)
	}
}

func TestPipelinedMetrics(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	cl, err := DialPipelined(addr, PipelineOpts{Window: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WriteObj(0, 0, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if err := cl.ReadObj(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	read := snap.Histograms[MetricClientReadNS]
	write := snap.Histograms[MetricClientWriteNS]
	batch := snap.Histograms[MetricClientBatchSize]
	if read.Count != 1 {
		t.Errorf("read histogram = %+v", read)
	}
	if write.Count != 1 {
		t.Errorf("write histogram = %+v", write)
	}
	if batch.Count == 0 {
		t.Errorf("batch-size histogram = %+v", batch)
	}
	// Server-side batch accounting.
	ssnap := srv.ObsSnapshot()
	if c := ssnap.Counters[MetricReadBatches]; c == 0 {
		t.Error("server read-batch counter not incremented")
	}
}

// TestSerialClientStalledServer: a serial caller (one blocking op on a
// Window: 1 client, no deadline) stuck behind a server that never
// answers must be unblocked by Close with ErrClientClosed — Close never
// waits behind the in-flight round trip — as must all later calls.
func TestSerialClientStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if stubHandshake(conn) != nil {
			return
		}
		// Read the request, never answer.
		rdma.ReadFrameCRC(conn)
		<-stop
	}()

	cl, err := dialSerial(ln.Addr().String(), PipelineOpts{})
	if err != nil {
		t.Fatal(err)
	}
	readDone := make(chan error, 1)
	go func() {
		readDone <- cl.ReadObj(0, 0, make([]byte, 8))
	}()
	// Give the round trip time to get stuck waiting for the response.
	time.Sleep(50 * time.Millisecond)

	closeDone := make(chan struct{})
	go func() {
		cl.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked behind the stalled round trip")
	}
	select {
	case err := <-readDone:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("stalled read = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled read never unblocked")
	}
	if err := cl.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close ping = %v, want ErrClientClosed", err)
	}
}

// TestSerialClientBrokenStreamFailsFast: without a redialer, a
// mid-flight transport failure fails the serial caller and makes the
// client refuse new round trips instead of pairing them with stale
// bytes from the desynchronized stream.
func TestSerialClientBrokenStreamFailsFast(t *testing.T) {
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
		if stubHandshake(conn) == nil {
			// Read one request, then slam the connection.
			rdma.ReadFrameCRC(conn)
		}
		conn.Close()
	}()
	cl, err := dialSerial(ln.Addr().String(), PipelineOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.ReadObj(0, 0, make([]byte, 8)); err == nil {
		t.Fatal("read against slammed connection should fail")
	}
	// The sticky error keeps later calls from touching the stream.
	if cl.Alive() {
		t.Fatal("client without a redialer should fail permanently")
	}
	if err := cl.Ping(); err == nil {
		t.Fatal("ping after transport failure should fail fast")
	}
}
