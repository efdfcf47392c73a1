package remote

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
)

// chunkConn is a call-counting io.ReadWriteCloser standing in for a
// socket. Each Read returns bytes from at most one delivered chunk —
// what one recv would find after the peer's write arrived — and every
// Write is recorded with its length.
type chunkConn struct {
	in     chan []byte
	closed chan struct{}
	once   sync.Once
	kick   chan struct{} // capacity 1: a Write happened since the last wait

	cur   []byte // rest of the chunk being read (reader goroutine only)
	mu    sync.Mutex
	reads int      // Read calls that returned data
	out   [][]byte // copy of every Write call's bytes
}

func newChunkConn() *chunkConn {
	return &chunkConn{
		in:     make(chan []byte),
		closed: make(chan struct{}),
		kick:   make(chan struct{}, 1),
	}
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.cur) == 0 {
		select {
		case c.cur = <-c.in:
		case <-c.closed:
			return 0, io.EOF
		}
	}
	n := copy(p, c.cur)
	c.cur = c.cur[n:]
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, append([]byte(nil), p...))
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (c *chunkConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// counts returns the Read calls that returned data and the Write calls
// so far.
func (c *chunkConn) counts() (reads, writes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads, len(c.out)
}

// awaitFrame waits until the Write calls from index from on carry one
// whole frame (plain when crc is false), and returns it with the
// lengths of those calls.
func (c *chunkConn) awaitFrame(t *testing.T, from int, crc bool) (rdma.Frame, []int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		c.mu.Lock()
		var wire []byte
		var lens []int
		for _, p := range c.out[from:] {
			wire = append(wire, p...)
			lens = append(lens, len(p))
		}
		c.mu.Unlock()
		var f rdma.Frame
		var err error
		if crc {
			f, err = rdma.ReadFramePooled(bytes.NewReader(wire), false)
		} else {
			f, err = rdma.ReadFrame(bytes.NewReader(wire))
		}
		if err == nil {
			return f, lens
		}
		select {
		case <-c.kick:
		case <-deadline:
			t.Fatalf("no whole frame in %d bytes written: %v", len(wire), err)
		}
	}
}

// crcFrame encodes f as the session sends it.
func crcFrame(t *testing.T, f rdma.Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rdma.WriteFrameCRC(&b, f); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// serveChunkConn starts ServeConn on a fresh chunkConn and completes
// the handshake; the returned counts include the handshake's calls.
func serveChunkConn(t *testing.T, srv *Server) *chunkConn {
	t.Helper()
	cc := newChunkConn()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(cc)
	}()
	t.Cleanup(func() {
		cc.Close()
		<-done
	})
	var ping bytes.Buffer
	if err := rdma.WriteFrame(&ping, rdma.Hello(rdma.OpPing, 0)); err != nil {
		t.Fatal(err)
	}
	cc.in <- ping.Bytes()
	if f, _ := cc.awaitFrame(t, 0, false); f.Op != rdma.OpOK {
		t.Fatalf("handshake reply %s", f.Op)
	}
	return cc
}

// TestServerIsolatedReplyOneWriteOneRead pins the server's I/O shape for
// one request/reply exchange: a request frame that arrived whole costs
// the server one Read (not one per header, tag, payload and trailer),
// and its reply leaves in exactly one Write.
func TestServerIsolatedReplyOneWriteOneRead(t *testing.T) {
	srv := NewServer()
	srv.Store.Write(1, 2, bytes.Repeat([]byte{0xAB}, 256))
	cc := serveChunkConn(t, srv)
	reads0, writes0 := cc.counts()

	req := rdma.EncodeReadBatchCRawPooled(7, []rdma.ReadReq{{DS: 1, Idx: 2, Size: 256}})
	cc.in <- crcFrame(t, req)
	resp, lens := cc.awaitFrame(t, writes0, true)
	if reads, _ := cc.counts(); reads-reads0 != 1 {
		t.Fatalf("request frame cost the server %d reads, want 1", reads-reads0)
	}
	if len(lens) != 1 {
		t.Fatalf("isolated reply took %d writes %v, want 1", len(lens), lens)
	}
	segs, err := rdma.DecodeDataBatchCInto(resp.Payload, nil)
	if err != nil || resp.Op != rdma.OpDataBatchC || resp.Tag != 7 || len(segs) != 1 ||
		!bytes.Equal(segs[0].Data, bytes.Repeat([]byte{0xAB}, 256)) {
		t.Fatalf("reply %s tag %d: %d segments, err %v", resp.Op, resp.Tag, len(segs), err)
	}
}

// TestServerLargeReplyByReference pins the large-frame path: a 128 KiB
// DATABATCH-C reply is handed to the socket by reference — one write of
// the whole payload — never copied through the 16 KiB coalescing buffer.
func TestServerLargeReplyByReference(t *testing.T) {
	srv := NewServer()
	const objs, size = 32, 4096
	var reqs []rdma.ReadReq
	for i := 0; i < objs; i++ {
		srv.Store.Write(3, uint32(i), bytes.Repeat([]byte{byte(i + 1)}, size)) // non-zero: no SchemeZero shortcut
		reqs = append(reqs, rdma.ReadReq{DS: 3, Idx: uint32(i), Size: size})
	}
	cc := serveChunkConn(t, srv)
	_, writes0 := cc.counts()

	cc.in <- crcFrame(t, rdma.EncodeReadBatchCRawPooled(9, reqs))
	resp, lens := cc.awaitFrame(t, writes0, true)
	if resp.Op != rdma.OpDataBatchC || len(resp.Payload) < objs*size {
		t.Fatalf("reply %s of %d B, want a DATABATCH-C of >= %d B", resp.Op, len(resp.Payload), objs*size)
	}
	// chunkConn is not a TCP socket, so net.Buffers falls back to one
	// Write per piece of the vectored write: header, payload, trailer.
	if len(lens) != 3 || lens[1] != len(resp.Payload) {
		t.Fatalf("reply writes %v, want [header, %d-byte payload, trailer]", lens, len(resp.Payload))
	}
}

// TestServerReplyDoorbellLiveness floods every batch worker of a
// connection with thousands of small concurrent batches in one burst:
// replies coalesce while batches wait for a worker, and the doorbell
// must still ring for the last of them — every reply arrives, none is
// stranded in the buffer. The frames-per-write histogram accounts every
// reply frame.
func TestServerReplyDoorbellLiveness(t *testing.T) {
	srv := NewServer()
	for i := 0; i < 64; i++ {
		srv.Store.Write(1, uint32(i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := stubClientHandshake(conn); err != nil {
		t.Fatal(err)
	}

	const n = 4000
	var burst bytes.Buffer
	fw := rdma.NewFrameWriter(&burst, nil)
	for tag := uint32(1); tag <= n; tag++ {
		var f rdma.Frame
		if tag%4 == 0 {
			var err error
			f, err = rdma.EncodeWriteBatchCPooled(tag, []rdma.WriteReqC{{
				DS: 2, Idx: tag, Scheme: rdma.SchemeRaw, RawLen: 8, Data: []byte("12345678"),
			}}, false)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			f = rdma.EncodeReadBatchCRawPooled(tag, []rdma.ReadReq{{DS: 1, Idx: tag % 64, Size: 64}})
		}
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		rdma.PutBuf(f.Payload)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	go func() {
		_, err := conn.Write(burst.Bytes())
		werr <- err
	}()

	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	br := bufio.NewReaderSize(conn, rdma.FrameBufSize)
	seen := make(map[uint32]bool, n)
	for len(seen) < n {
		f, err := rdma.ReadFramePooled(br, false)
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(seen), n, err)
		}
		want := rdma.OpDataBatchC
		if f.Tag%4 == 0 {
			want = rdma.OpAckBatchC
		}
		if f.Op != want || seen[f.Tag] {
			t.Fatalf("reply tag %d: %s (duplicate %v), want %s", f.Tag, f.Op, seen[f.Tag], want)
		}
		seen[f.Tag] = true
		rdma.PutBuf(f.Payload)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	// A write is observed after it returns, so the last observation may
	// trail the client's read: close the server (which waits for its
	// connection goroutines) before reading the histogram.
	srv.Close()
	h := srv.Obs().Snapshot().Histogram(MetricReplyFramesPerWrite)
	if h.Sum != n {
		t.Fatalf("frames-per-write histogram accounts %d reply frames, want %d", h.Sum, n)
	}
	t.Logf("%d replies in %d writes (%.1f frames per write)", n, h.Count, float64(n)/float64(h.Count))
}

// TestServerReplyDoorbellHoldsOneReply pins the doorbell's bound: a
// reply is held for at most one later reply, so no socket write carries
// more than two reply frames even while a long queue of batches waits
// for a worker. The store is locked while a burst of small batches
// arrives, so every worker blocks mid-batch and the read loop waits to
// hand over the next one; unlocking releases them all at once.
func TestServerReplyDoorbellHoldsOneReply(t *testing.T) {
	srv := NewServer()
	for i := 0; i < 8; i++ {
		srv.Store.Write(1, uint32(i), bytes.Repeat([]byte{byte(i + 1)}, 64))
	}
	cc := serveChunkConn(t, srv)
	_, writes0 := cc.counts()

	const n = 32
	var burst []byte
	for tag := uint32(1); tag <= n; tag++ {
		f := rdma.EncodeReadBatchCRawPooled(tag, []rdma.ReadReq{{DS: 1, Idx: tag % 8, Size: 64}})
		burst = append(burst, crcFrame(t, f)...)
		rdma.PutBuf(f.Payload)
	}
	srv.Store.mu.Lock()
	cc.in <- burst
	// Every worker holds a batch and one more waits at the hand-over.
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.inflight.Load() < DefaultBatchWorkers+1 {
		if time.Now().After(deadline) {
			srv.Store.mu.Unlock()
			t.Fatalf("inflight %d, want %d", srv.metrics.inflight.Load(), DefaultBatchWorkers+1)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	srv.Store.mu.Unlock()

	seen := 0
	for w := writes0; seen < n; w++ {
		for {
			cc.mu.Lock()
			have := len(cc.out) > w
			cc.mu.Unlock()
			if have {
				break
			}
			select {
			case <-cc.kick:
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d replies arrived", seen, n)
			}
		}
		cc.mu.Lock()
		r := bytes.NewReader(cc.out[w])
		cc.mu.Unlock()
		frames := 0
		for r.Len() > 0 {
			f, err := rdma.ReadFramePooled(r, false)
			if err != nil || f.Op != rdma.OpDataBatchC {
				t.Fatalf("write %d: reply %s: %v", w-writes0, f.Op, err)
			}
			rdma.PutBuf(f.Payload)
			frames++
		}
		if frames > 2 {
			t.Fatalf("write %d carried %d replies: a reply was held behind more than one other", w-writes0, frames)
		}
		seen += frames
	}
}

// stubClientHandshake opens a hand-rolled client session with no
// negotiable features.
func stubClientHandshake(conn io.ReadWriter) error {
	if err := rdma.WriteFrame(conn, rdma.Hello(rdma.OpPing, 0)); err != nil {
		return err
	}
	f, err := rdma.ReadFrame(conn)
	if err != nil {
		return err
	}
	if f.Op != rdma.OpOK {
		return fmt.Errorf("handshake reply %s", f.Op)
	}
	return nil
}

// TestClientFramesPerWrite: every request frame the pipelined client
// sends is accounted in its frames-per-write histogram.
func TestClientFramesPerWrite(t *testing.T) {
	reg := obs.NewRegistry()
	_, cl := startPipelined(t, PipelineOpts{Window: 16, MaxBatch: 1, Obs: reg})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 32)
			if err := cl.WriteObj(1, i, buf); err != nil {
				t.Error(err)
			}
			if err := cl.ReadObj(1, i, buf); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	cl.Close() // waits for the flusher, whose last observation may trail the replies
	h := reg.Snapshot().Histogram(MetricClientFramesPerWrite)
	if h.Sum != 128 || h.Count == 0 || h.Count > 128 {
		t.Fatalf("client frames-per-write: %d frames in %d writes, want 128 frames", h.Sum, h.Count)
	}
}
