// Package remote implements the remote memory node: a server that owns
// the far tier of objects keyed by (data structure, object index), and a
// client that implements farmem.Store over the rdma wire protocol. This
// is the process pair the paper runs on two CloudLab machines — memory
// server on one, application on the other.
//
// The server is concurrency-safe (one goroutine per connection, plus a
// per-connection worker pool answering batch frames out of order). The
// client, PipelinedClient, keeps a bounded window of tagged requests in
// flight, coalesces queued frames into single doorbell writes, and
// implements farmem.AsyncStore so prefetchers can issue a whole
// lookahead window without blocking; a blocking call on it is one op
// in that window. Resilient wraps it to survive outages longer than its
// reconnect budget.
package remote

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
)

// ObjectStore is the server-side keyed object storage. Every object
// optionally carries a u64 epoch stamp (the replication layer's
// versioning): epoch-stamped writes apply conditionally so a resync
// replaying stale images can never clobber a newer write, and
// epoch-stamped reads report the stored stamp so a client can tell a
// current image from a stale backup.
type ObjectStore struct {
	mu sync.RWMutex
	m  map[[2]uint32][]byte
	ep map[[2]uint32]uint64
}

// NewObjectStore creates an empty store.
func NewObjectStore() *ObjectStore {
	return &ObjectStore{m: make(map[[2]uint32][]byte), ep: make(map[[2]uint32]uint64)}
}

// Read copies the object into a fresh buffer of the requested size
// (zero-filled when absent or shorter).
func (s *ObjectStore) Read(ds, idx, size uint32) []byte {
	out := make([]byte, size)
	s.ReadInto(ds, idx, out)
	return out
}

// ReadInto copies the object into dst (zero-filling the tail when the
// object is absent or shorter) — the allocation-free gather path the
// batch workers use to fill reply buffers in place.
func (s *ObjectStore) ReadInto(ds, idx uint32, dst []byte) {
	s.mu.RLock()
	n := copy(dst, s.m[[2]uint32{ds, idx}])
	s.mu.RUnlock()
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// Write stores a copy of data.
func (s *ObjectStore) Write(ds, idx uint32, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.m[[2]uint32{ds, idx}] = cp
	s.mu.Unlock()
}

// WriteEpoch stores a copy of data stamped with epoch iff epoch is at
// least the stored stamp, and reports whether it applied. Equal epochs
// apply (write-back reissues after an uncertain ack carry the same
// stamp and must land); older epochs are stale resync images and are
// dropped. The compare-and-store is atomic under the store lock, so a
// live write and a concurrent anti-entropy replay serialize correctly
// whichever order they arrive.
func (s *ObjectStore) WriteEpoch(ds, idx uint32, epoch uint64, data []byte) bool {
	k := [2]uint32{ds, idx}
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.ep[k] {
		return false
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.m[k] = cp
	s.ep[k] = epoch
	return true
}

// ReadEpochInto is ReadInto returning the object's stored epoch stamp
// (0 when absent or never epoch-stamped). The copy and the stamp read
// happen under one lock acquisition so the pair is a consistent
// snapshot.
func (s *ObjectStore) ReadEpochInto(ds, idx uint32, dst []byte) uint64 {
	k := [2]uint32{ds, idx}
	s.mu.RLock()
	n := copy(dst, s.m[k])
	epoch := s.ep[k]
	s.mu.RUnlock()
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return epoch
}

// Epoch returns the stored epoch stamp for an object (0 when absent).
func (s *ObjectStore) Epoch(ds, idx uint32) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ep[[2]uint32{ds, idx}]
}

// Keys returns every stored object key — test and resync-verification
// support.
func (s *ObjectStore) Keys() [][2]uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([][2]uint32, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	return keys
}

// Len returns the number of stored objects.
func (s *ObjectStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Server serves the far-memory protocol on a listener.
type Server struct {
	Store *ObjectStore

	// BatchWorkers is the number of goroutines per connection serving
	// batch frames; batches are served concurrently and may be answered
	// out of order (tags route the replies). <= 0 uses
	// DefaultBatchWorkers. Set before Listen/ServeConn.
	BatchWorkers int

	// ConnWrap, when non-nil, wraps every accepted connection before it
	// is served — the hook cardsd's -chaos flag uses to interpose the
	// faultnet chaos layer. Set before Listen.
	ConnWrap func(io.ReadWriteCloser) io.ReadWriteCloser

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[io.ReadWriteCloser]struct{}
	wg     sync.WaitGroup

	reg      *obs.Registry
	tracer   *obs.Tracer
	metrics  *serverMetrics
	cpolicy  compressPolicy // per-DS adaptive compression state
	features uint32         // negotiable features this server grants
	nextCon  atomic.Int64
	epoch    time.Time // base for the RecvUS server stamps
}

// DefaultBatchWorkers is the per-connection batch concurrency.
const DefaultBatchWorkers = 4

// NewServer creates a server with an empty store and a private metric
// registry.
func NewServer() *Server { return NewServerWith(nil, nil) }

// NewServerWith creates a server publishing into reg (nil for a private
// registry) and, when tr is non-nil, emitting one trace span per served
// request into the ring.
func NewServerWith(reg *obs.Registry, tr *obs.Tracer) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Server{
		Store:    NewObjectStore(),
		reg:      reg,
		tracer:   tr,
		metrics:  newServerMetrics(reg),
		features: rdma.Features,
		epoch:    time.Now(),
	}
}

// batchJob carries one batch frame to the worker pool together with its
// socket receive time, so the reply stamp can split queue wait (receive
// to worker pickup) from service time.
type batchJob struct {
	f    rdma.Frame
	recv time.Time
}

// stamp fills a tagged reply's trace extension with the server-side
// timestamps when the session negotiated FeatTrace (no-op otherwise).
// Every tagged reply of such a session must carry the fixed-size
// extension — the client's framing depends on it — so error replies get
// stamped too.
func (s *Server) stamp(resp *rdma.Frame, trace bool, recv, dispatch time.Time) {
	if !trace {
		return
	}
	resp.SetServerStamp(
		uint64(recv.Sub(s.epoch).Microseconds()),
		uint32(dispatch.Sub(recv).Microseconds()),
		uint32(time.Since(dispatch).Microseconds()),
	)
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address. Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		var rwc io.ReadWriteCloser = conn
		if s.ConnWrap != nil {
			rwc = s.ConnWrap(rwc)
		}
		if !s.trackConn(rwc) {
			rwc.Close() // accepted while shutting down
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrackConn(rwc)
			s.ServeConn(rwc)
		}()
	}
}

// trackConn registers an accepted connection so shutdown can close it;
// it refuses (false) once shutdown has begun, so no connection slips
// past the shutdown snapshot.
func (s *Server) trackConn(conn io.ReadWriteCloser) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[io.ReadWriteCloser]struct{})
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrackConn(conn io.ReadWriteCloser) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// ServeConn handles one connection until EOF or error. Exported so tests
// and in-process pairs (net.Pipe) can drive it directly.
//
// The session opens with the version handshake (see handshake); every
// later frame is CRC-trailed. Requests are read through an
// rdma.FrameBufSize buffer, so a burst of small frames costs one read.
// Batch frames are dispatched to a small per-connection worker pool and
// answered whenever they complete — possibly out of order; the tag
// routes each reply. Replies go through one rdma.FrameWriter behind a
// reply doorbell: a reply that finds the buffer empty is held while
// another batch waits for a worker (a reply is certain to follow), and
// every other reply flushes, so a reply waits behind at most one other
// and the last reply of a burst always rings the doorbell; a reply
// larger than the buffer leaves at once. Any other
// frame, the verbs of the version-1 protocol included, is refused with
// a definitive ERR/ERRTAG and the session continues. Callers that need
// write-then-read ordering for an object get it from the write
// acknowledgement: ACKBATCH-C is sent only after the store mutation, so
// a read issued after the ack observes it. Symmetrically, two batches
// carrying writes to the same object may be applied in either order —
// clients must not have two unacknowledged writes to one object in
// flight (the pipelined client's runtime caller serializes per-object
// write-backs).
func (s *Server) ServeConn(conn io.ReadWriteCloser) {
	defer conn.Close()
	connID := int(s.nextCon.Add(1))
	s.metrics.connsTotal.Inc()
	s.metrics.conns.Add(1)
	defer s.metrics.conns.Add(-1)

	br := bufio.NewReaderSize(conn, rdma.FrameBufSize)
	feats, ok := s.handshake(br, conn, connID)
	if !ok {
		return
	}
	trace := feats&rdma.FeatTrace != 0
	compress := feats&rdma.FeatCompress != 0

	// Batch workers reply concurrently with the read loop: every
	// response frame goes through send so frames never interleave.
	// waiting counts batch jobs read but not yet picked up by a worker.
	var (
		wmu     sync.Mutex
		waiting atomic.Int64
	)
	fw := rdma.NewFrameWriter(conn, s.metrics.writeFrames.Observe)
	send := func(resp rdma.Frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		s.metrics.bytesOut.Add(resp.WireSize())
		held := fw.Buffered()
		if err := fw.WriteFrame(resp); err != nil {
			return err
		}
		if held == 0 && waiting.Load() > 0 {
			// A waiting job's reply will ring the doorbell: every picked-up
			// job sends exactly one reply, after its pickup. Only a reply
			// into an empty buffer is held, so the next reply always
			// flushes and no reply waits behind more than one other.
			return nil
		}
		return fw.Flush()
	}
	workers := s.BatchWorkers
	if workers <= 0 {
		workers = DefaultBatchWorkers
	}
	jobs := make(chan batchJob)
	var bwg sync.WaitGroup
	bwg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer bwg.Done()
			// Per-worker scratch keeps the steady-state batch path free of
			// per-frame allocations (the request slices are reused; reply
			// payloads come from the frame buffer pool).
			var rscratch []rdma.ReadReq
			var cscratch []rdma.ChaseReq
			var cb rdma.DataBatchCBuilder
			defer cb.Release()
			var cwscratch compactWriteScratch
			defer cwscratch.release()
			for j := range jobs {
				waiting.Add(-1)
				switch j.f.Op {
				case rdma.OpReadBatchC:
					rscratch = s.serveBatchC(j, connID, send, trace, compress, rscratch, &cb)
				case rdma.OpWriteBatchC:
					s.serveWriteBatchC(j, connID, send, trace, false, &cwscratch)
				case rdma.OpWriteEpochBatchC:
					s.serveWriteBatchC(j, connID, send, trace, true, &cwscratch)
				case rdma.OpReadEpochBatch:
					rscratch = s.serveReadEpochBatch(j, connID, send, trace, rscratch)
				case rdma.OpChaseBatch:
					cscratch = s.serveChaseBatch(j, connID, send, trace, cscratch)
				}
				rdma.PutBuf(j.f.Payload)
			}
		}()
	}
	defer bwg.Wait()
	defer close(jobs)

	for {
		f, err := rdma.ReadFramePooled(br, trace)
		if err != nil {
			return
		}
		s.metrics.bytesIn.Add(f.WireSize())
		switch f.Op {
		case rdma.OpReadBatchC, rdma.OpWriteBatchC, rdma.OpWriteEpochBatchC,
			rdma.OpReadEpochBatch, rdma.OpChaseBatch:
			s.metrics.inflight.Add(1)
			waiting.Add(1)
			jobs <- batchJob{f: f, recv: time.Now()} // reply sent by a worker, possibly out of order
			continue
		}
		s.metrics.errors.Inc()
		msg := fmt.Sprintf("unexpected op %s", f.Op)
		resp := rdma.ErrFrame(msg)
		if f.Op.Tagged() {
			now := time.Now()
			resp = rdma.ErrTagFrame(f.Tag, msg)
			s.stamp(&resp, trace, now, now)
		}
		rdma.PutBuf(f.Payload)
		if send(resp) != nil {
			return
		}
	}
}

// handshake runs the plain-framed exchange that opens every session: the
// client's PING carries its protocol version and the negotiable
// features it wants, and the server grants the subset it offers. A
// first frame that is not a PING of this protocol version — a peer on
// another version, or a handshake garbled in transit — is answered with
// ERR, and ok is false: no session can start, so the caller closes the
// connection. Other connections are unaffected. The PING is read
// through the session's buffered reader r, which may already hold the
// frames the client sent behind it.
func (s *Server) handshake(r io.Reader, conn io.Writer, connID int) (feats uint32, ok bool) {
	f, err := rdma.ReadFrame(r)
	if err != nil {
		return 0, false
	}
	start := time.Now()
	var startUS uint64
	if s.tracer != nil {
		startUS = s.tracer.Now()
	}
	s.metrics.bytesIn.Add(f.WireSize())
	var resp rdma.Frame
	version, want, hello := rdma.DecodeHello(f.Payload)
	switch {
	case f.Op != rdma.OpPing:
		resp = rdma.ErrFrame(fmt.Sprintf("unexpected op %s before the version handshake", f.Op))
	case !hello:
		resp = rdma.ErrFrame(fmt.Sprintf("protocol version mismatch: server speaks version %d, peer sent no version",
			rdma.ProtocolVersion))
	case version != rdma.ProtocolVersion:
		resp = rdma.ErrFrame(fmt.Sprintf("protocol version mismatch: server speaks version %d, peer version %d",
			rdma.ProtocolVersion, version))
	default:
		feats, ok = want&s.features, true
		resp = rdma.Hello(rdma.OpOK, feats)
	}
	if ok {
		s.observePing(connID, start, startUS)
	} else {
		s.metrics.errors.Inc()
	}
	s.metrics.bytesOut.Add(resp.WireSize())
	if rdma.WriteFrame(conn, resp) != nil {
		return 0, false
	}
	return feats, ok
}

// reqTrace extracts the sampled trace ID riding a request's trace
// extension; 0 when the frame carries none (or the root was unsampled).
func reqTrace(f rdma.Frame) uint64 {
	if !f.HasExt {
		return 0
	}
	traceID, _, sampled := f.TraceCtx()
	if !sampled {
		return 0
	}
	return traceID
}

// Counts returns (reads, writes) served. The values are the registry's
// cards_remote_reads_total / writes_total counters.
func (s *Server) Counts() (uint64, uint64) {
	return s.metrics.reads.Load(), s.metrics.writes.Load()
}

// Close stops the listener, closes every open connection and waits for
// their goroutines — Drain with no grace period. Clients see an
// ordinary disconnect. Close is idempotent.
func (s *Server) Close() error {
	s.Drain(0)
	return nil
}

// Drain performs a graceful shutdown: stop accepting, let in-flight
// requests finish (bounded by timeout), then force-close any connection
// still open and wait for its goroutines. Clients see a clean
// disconnect after their outstanding replies, which their reconnect
// logic treats as an ordinary cut. Returns true if in-flight work hit
// zero before the timeout.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil && !closed {
		ln.Close()
	}
	deadline := time.Now().Add(timeout)
	drained := false
	for {
		if s.metrics.inflight.Load() == 0 {
			drained = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	conns := make([]io.ReadWriteCloser, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return drained
}
