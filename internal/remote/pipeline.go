package remote

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
)

// Client errors.
var (
	// ErrProtocolVersion means the version handshake failed: the peer
	// speaks another protocol version, or refused or garbled the
	// handshake. A corrupted handshake is indistinguishable from a real
	// mismatch, so dials retry it under their normal budget.
	ErrProtocolVersion = errors.New("remote: protocol version mismatch")

	// ErrClientClosed is returned by calls made after (or unblocked by)
	// Close.
	ErrClientClosed = errors.New("remote: client closed")
)

// DefaultReconnectAttempts bounds the redial loop after a connection
// fault when PipelineOpts.RetryMax is unset.
const DefaultReconnectAttempts = 6

// PipelineOpts tunes a PipelinedClient.
type PipelineOpts struct {
	// Window bounds the read operations in flight on the wire (default
	// 64). This is the pipeline depth: higher hides more round trips but
	// holds more completion state.
	Window int
	// WriteWindow bounds the writes in flight on the wire (default
	// Window). Writes have their own window so a backlog of write-backs
	// never starves demand reads of in-flight slots, and vice versa.
	WriteWindow int
	// MaxBatch bounds the reads coalesced into one read batch frame and
	// the writes coalesced into one write batch (default 32, clamped to
	// Window).
	MaxBatch int
	// Obs, when non-nil, receives per-op latencies, doorbell batch
	// sizes, the live in-flight depth, and wire bytes. It must be set
	// here (not after construction) so the background goroutines see it.
	Obs *obs.Registry

	// Trace, when non-nil, turns on distributed tracing: the client
	// requests the FeatTrace frame extension, stamps active span
	// contexts onto outgoing tagged frames, decomposes every completed
	// op into client-queue / wire / server-queue / server-service from
	// the server's reply stamps, feeds the cards_attrib_* series (when
	// Obs is also set) and the hub's slow-op flight recorder, and emits
	// merged client+server spans for sampled ops. Nil keeps the session
	// byte-identical to a non-tracing client.
	Trace *obs.TraceHub

	// Shard labels this client's attribution series and slow-op records
	// (sharded deployments set it to the shard index); empty omits the
	// label.
	Shard string

	// Compression controls adaptive per-object compression: "" or
	// "auto" requests rdma.FeatCompress and lets the per-DS policy decide
	// online which objects to compress; "off" never requests the feature
	// (objects ship raw inside the same compact frames).
	Compression string

	// Timeout bounds the handshake and, on deadline-capable connections,
	// detects a stalled stream: no reply within Timeout while operations
	// are in flight abandons the connection. 0 disables.
	Timeout time.Duration

	// Redial reopens the transport after a connection fault. With it set
	// the client reconnects transparently: the in-flight read window is
	// replayed on the fresh connection (reads are idempotent), while
	// unacknowledged writes complete with ErrUncertainWrite — the caller
	// decides whether its writes are safe to replay. Nil keeps the
	// historical fail-stop behavior.
	Redial func() (io.ReadWriteCloser, error)

	// RetryMax bounds consecutive failed redial attempts before the
	// client fails permanently (default DefaultReconnectAttempts).
	// RetryBase/RetryCap shape the capped exponential backoff between
	// attempts (defaults 2ms / 250ms); Seed makes its jitter
	// deterministic for tests.
	RetryMax  int
	RetryBase time.Duration
	RetryCap  time.Duration
	Seed      int64
}

func (o PipelineOpts) withDefaults() PipelineOpts {
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.WriteWindow <= 0 {
		o.WriteWindow = o.Window
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.MaxBatch > o.Window {
		o.MaxBatch = o.Window
	}
	return o
}

// pipeOp is one queued or in-flight operation. Completion is delivered
// exactly once: through done when set (async reads), else through ch.
type pipeOp struct {
	write         bool
	wantEp        bool // ride the epoch-stamped verbs
	chase         bool // ride the traversal-offload verbs
	probe         bool // liveness ping: not workload, kept out of tracing
	ds, idx, size uint32
	epoch         uint64           // write: stamp to apply; read: stamp received
	dst           []byte           // read destination
	data          []byte           // write payload (valid until completion)
	exts          []rdma.Extent    // range write-back: dirty extents of data (nil = full object)
	creq          rdma.ChaseReq    // chase: the traversal program
	cres          rdma.ChaseResult // chase: decoded path (hop data caller-owned)
	done          func(error)
	edone         func(uint64, error)           // epoch-read completion (exclusive with done/ch)
	cdone         func(rdma.ChaseResult, error) // chase completion (exclusive with done/ch)
	ch            chan error
	start         time.Time       // set when metrics or tracing are attached
	sentAt        time.Time       // doorbell time (tracing sessions only)
	ctx           obs.SpanContext // root span context captured at enqueue
	attempts      int             // reconnect replays beyond the first attempt
}

func (op *pipeOp) complete(err error) {
	if op.cdone != nil {
		op.cdone(op.cres, err)
		return
	}
	if op.edone != nil {
		op.edone(op.epoch, err)
		return
	}
	if op.done != nil {
		op.done(err)
		return
	}
	op.ch <- err
}

// readKind partitions read-window ops into frame families that must
// never share a batch frame: plain reads, epoch reads, and chases each
// have their own request/reply shapes.
func (op *pipeOp) readKind() int {
	switch {
	case op.chase:
		return 2
	case op.wantEp:
		return 1
	}
	return 0
}

// replay readies a harvested read-window op for reissue on a fresh
// connection. A chase also halves its hop budget (down to one hop): its
// reply grows with the budget, and a reply longer than the link carries
// between faults would otherwise be replayed whole forever. The caller
// resumes a shortened walk from the ChaseHops address as it would any
// budget-limited one.
func (op *pipeOp) replay() {
	op.attempts++
	if op.chase && op.creq.Hops > 1 {
		op.creq.Hops /= 2
	}
}

// PipelinedClient is a farmem.Store/AsyncStore over one connection that
// keeps a bounded window of tagged requests in flight.
//
// Data path: callers enqueue operations without touching the socket. A
// flusher goroutine drains the queue, coalesces consecutive reads into
// batch frames, and pushes everything through one buffered write and
// a single flush — the doorbell: one syscall rings out many verbs. A
// reader goroutine demultiplexes completions by tag, so replies may
// arrive in any order.
//
// Ordering contract: reads and writes flow through separate queues with
// separate in-flight windows; each completes in any order and the
// server may serve batches concurrently. A write is acknowledged only
// after it is applied, so issue-after-ack read-your-write ordering
// holds; callers must not read an object while their own write to it is
// still unacknowledged, and must not have two unacknowledged writes to
// the same object in flight (the farmem runtime guarantees both: reads
// of an object with an in-flight write-back are served from its staging
// buffer, and a new write-back of such an object first waits out the
// old one).
//
// Fault model: with Redial configured, a transport fault (cut, checksum
// mismatch, stalled stream) tears the connection down, replays every
// in-flight read on a fresh one under new tags, and completes in-flight
// writes with ErrUncertainWrite. The connection generation counter keeps
// the flusher, the reader, and stale failures from different
// generations honest about which connection actually failed.
type PipelinedClient struct {
	opts PipelineOpts

	mu           sync.Mutex
	conn         io.ReadWriteCloser // current connection; swapped on reconnect
	bw           *bufio.Writer      // doorbell buffer for conn
	trace        bool               // session carries the trace extension
	compress     bool               // session may ship LZ-compressed segments
	gen          uint64             // connection generation
	reconnecting bool               // a reconnect is in progress
	lastWire     time.Time          // last successful wire activity
	cond         *sync.Cond         // flusher waits for queue work / window space
	queue        []*pipeOp          // enqueued reads, not yet on the wire
	wqueue       []*pipeOp          // enqueued writes, not yet on the wire
	inflight     int                // read operations on the wire
	inflightW    int                // write operations on the wire
	nextTag      uint32
	pending      map[uint32][]*pipeOp // tag -> ops awaiting the tagged reply
	err          error                // sticky transport/close error

	rng  *rand.Rand    // backoff jitter; only the reconnect winner uses it
	stop chan struct{} // closed by fail: aborts backoff sleeps
	wg   sync.WaitGroup

	metrics *pipeMetrics
	hub     *obs.TraceHub  // immutable after construction; nil = no tracing
	shard   string         // attribution/slow-op shard label
	featReq uint32         // features requested on every handshake
	attrib  *attribCache   // reader-goroutine-owned; nil without Obs+Trace
	cpolicy compressPolicy // per-DS adaptive compression state
}

// negotiate runs the version handshake on a fresh connection, asking
// for the negotiable features in req, and returns the features granted.
// The exchange is plain-framed; d bounds it when > 0. A refusal (ERR),
// a reply of another version, or a grant outside req — what a handshake
// garbled in transit looks like — fails with ErrProtocolVersion.
func negotiate(conn io.ReadWriteCloser, d time.Duration, req uint32) (feats uint32, err error) {
	g := guardIO(conn, d)
	err = rdma.WriteFrame(conn, rdma.Hello(rdma.OpPing, req))
	var resp rdma.Frame
	if err == nil {
		resp, err = rdma.ReadFrame(conn)
	}
	if err = g.finish(err); err != nil {
		return 0, fmt.Errorf("remote: handshake: %w", err)
	}
	if resp.Op == rdma.OpErr {
		return 0, fmt.Errorf("%w: server refused the handshake: %s", ErrProtocolVersion, resp.Payload)
	}
	version, feats, ok := rdma.DecodeHello(resp.Payload)
	switch {
	case resp.Op != rdma.OpOK || !ok:
		return 0, fmt.Errorf("%w: unexpected handshake reply %s (%d bytes)", ErrProtocolVersion, resp.Op, len(resp.Payload))
	case version != rdma.ProtocolVersion:
		return 0, fmt.Errorf("%w: server speaks version %d, client %d", ErrProtocolVersion, version, rdma.ProtocolVersion)
	case feats&^req != 0:
		return 0, fmt.Errorf("%w: server granted unrequested features %#x", ErrProtocolVersion, feats&^req)
	}
	return feats, nil
}

// NewPipelined runs the version handshake on conn and, on success,
// returns a running pipelined client.
func NewPipelined(conn io.ReadWriteCloser, opts PipelineOpts) (*PipelinedClient, error) {
	var req uint32
	if opts.Trace != nil {
		req |= rdma.FeatTrace
	}
	if opts.Compression != "off" {
		req |= rdma.FeatCompress
	}
	feats, err := negotiate(conn, opts.Timeout, req)
	if err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	c := &PipelinedClient{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 64<<10),
		trace:    feats&rdma.FeatTrace != 0,
		compress: feats&rdma.FeatCompress != 0,
		opts:     opts.withDefaults(),
		lastWire: time.Now(),
		pending:  make(map[uint32][]*pipeOp),
		rng:      rand.New(rand.NewSource(seed)),
		stop:     make(chan struct{}),
		metrics:  newPipeMetrics(opts.Obs),
		hub:      opts.Trace,
		shard:    opts.Shard,
		featReq:  req,
	}
	if opts.Trace != nil {
		c.attrib = newAttribCache(opts.Obs, opts.Shard)
	}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(2)
	go c.flushLoop()
	go c.readLoop()
	return c, nil
}

// DialPipelined connects to a server address and runs the handshake.
// When fault handling is requested (Timeout or RetryMax set) opts.Redial
// defaults to redialing addr, and the initial dial and handshake retry
// under the same backoff budget as later reconnects — so a flaky link,
// or a handshake garbled in transit, at startup is survived too.
func DialPipelined(addr string, opts PipelineOpts) (*PipelinedClient, error) {
	opts = opts.withRedial(addr)
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; ; attempt++ {
		c, err := dialOnce(addr, opts)
		if err == nil || attempt >= opts.RetryMax {
			return c, err
		}
		time.Sleep(backoff(rng, opts.RetryBase, opts.RetryCap, attempt))
	}
}

// withRedial defaults Redial to redialing addr when fault handling is
// requested (Timeout or RetryMax set).
func (o PipelineOpts) withRedial(addr string) PipelineOpts {
	if o.Redial == nil && (o.RetryMax > 0 || o.Timeout > 0) {
		o.Redial = redialer(addr)
	}
	return o
}

// dialOnce is one dial + handshake attempt.
func dialOnce(addr string, opts PipelineOpts) (*PipelinedClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	c, err := NewPipelined(conn, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// redialer builds a Redial function for a TCP address. The indirection
// avoids the classic typed-nil trap: returning (*net.TCPConn)(nil) in an
// io.ReadWriteCloser interface would compare non-nil.
func redialer(addr string) func() (io.ReadWriteCloser, error) {
	return func() (io.ReadWriteCloser, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return conn, nil
	}
}

// DialConfig configures DialResilient: pipeline shape plus the
// fault-handling knobs.
type DialConfig struct {
	// Timeout bounds the handshake and stall detection. RetryMax /
	// RetryBase / RetryCap / Seed shape the retry and reconnect backoff;
	// see PipelineOpts.
	Timeout   time.Duration
	RetryMax  int
	RetryBase time.Duration
	RetryCap  time.Duration
	Seed      int64

	// Window/MaxBatch pass through to PipelineOpts.
	Window   int
	MaxBatch int

	Obs *obs.Registry

	// Trace/Shard/Compression pass through to PipelineOpts.
	Trace       *obs.TraceHub
	Shard       string
	Compression string
}

// pipelineOpts maps the config onto the client's options.
func (c DialConfig) pipelineOpts() PipelineOpts {
	return PipelineOpts{
		Window: c.Window, MaxBatch: c.MaxBatch, Obs: c.Obs,
		Trace: c.Trace, Shard: c.Shard, Compression: c.Compression,
		Timeout: c.Timeout, RetryMax: c.RetryMax,
		RetryBase: c.RetryBase, RetryCap: c.RetryCap, Seed: c.Seed,
	}
}

// enqueue hands an operation to the flusher (never blocks on the wire).
// Reads and writes queue separately so each window fills independently.
func (c *PipelinedClient) enqueue(op *pipeOp) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		op.complete(err)
		return
	}
	if c.metrics != nil || c.hub != nil {
		op.start = time.Now()
	}
	if c.hub != nil {
		// The root layer (a deref miss, a prefetcher, the write-back
		// stager) installs its span context synchronously around the call
		// that lands here; picking it up is one atomic load.
		op.ctx = c.hub.Active()
	}
	if op.write {
		c.wqueue = append(c.wqueue, op)
	} else {
		c.queue = append(c.queue, op)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// IssueRead implements farmem.AsyncStore: it starts filling dst and
// returns immediately; done is invoked exactly once (possibly on the
// reader goroutine) when dst is filled or the read failed. done must not
// block.
func (c *PipelinedClient) IssueRead(ds, idx int, dst []byte, done func(error)) {
	c.enqueue(&pipeOp{
		ds: uint32(ds), idx: uint32(idx), size: uint32(len(dst)),
		dst: dst, done: done,
	})
}

// IssueWrite implements farmem.AsyncWriteStore: it enqueues the write
// and returns immediately; done is invoked exactly once (possibly on
// the reader goroutine) when the server has acknowledged the write or
// it failed. src must stay valid and unmodified until done runs; done
// must not block. A connection fault before the ack completes the write
// with ErrUncertainWrite — the transport never silently replays a write
// that may already have been applied; the caller reissues if (as with
// full-object write-backs) the write is idempotent.
func (c *PipelinedClient) IssueWrite(ds, idx int, src []byte, done func(error)) {
	c.enqueue(&pipeOp{
		write: true, ds: uint32(ds), idx: uint32(idx),
		data: src, done: done,
	})
}

// ReadObj implements farmem.Store (issue + wait).
func (c *PipelinedClient) ReadObj(ds, idx int, dst []byte) error {
	op := &pipeOp{
		ds: uint32(ds), idx: uint32(idx), size: uint32(len(dst)),
		dst: dst, ch: make(chan error, 1),
	}
	c.enqueue(op)
	return <-op.ch
}

// WriteObj implements farmem.Store. The write rides the same pipeline
// (tagged frame) and returns once the server acknowledges it; src must
// stay unmodified until then, which the blocking call guarantees. If the
// connection fails before the ack, the error is ErrUncertainWrite: the
// transport does not know whether the server applied it and will not
// guess.
func (c *PipelinedClient) WriteObj(ds, idx int, src []byte) error {
	op := &pipeOp{
		write: true, ds: uint32(ds), idx: uint32(idx),
		data: src, ch: make(chan error, 1),
	}
	c.enqueue(op)
	return <-op.ch
}

// Ping checks liveness by round-tripping an empty read batch through the
// full pipeline — it doubles as a fence: when it returns, every
// operation enqueued before it has been issued. Probes are transport
// plumbing, not workload: they skip the slow-op recorder and the
// attribution series, which otherwise report a rootless ds0[0] "read"
// for every connection setup and breaker probe.
func (c *PipelinedClient) Ping() error {
	op := &pipeOp{probe: true, ch: make(chan error, 1)}
	c.enqueue(op)
	return <-op.ch
}

// Close fails all queued and in-flight operations with ErrClientClosed,
// closes the connection, and waits for the background goroutines. A
// reconnect in progress aborts at its next cancellation point.
func (c *PipelinedClient) Close() error {
	c.fail(ErrClientClosed)
	c.wg.Wait()
	return nil
}

// Alive reports whether the client can still serve operations — it has
// not been closed and has not failed permanently after exhausting its
// reconnect budget. A false result is terminal: callers holding a dead
// client must dial a new one (see Resilient).
func (c *PipelinedClient) Alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err == nil
}

// fail marks the client broken permanently: completes everything
// outstanding with err, wakes the loops, aborts reconnect sleeps, and
// closes the current connection (unblocking the reader). First caller
// wins; later failures are ignored.
func (c *PipelinedClient) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	queued := append(c.queue, c.wqueue...)
	c.queue, c.wqueue = nil, nil
	pend := c.pending
	c.pending = make(map[uint32][]*pipeOp)
	c.inflight = 0
	c.inflightW = 0
	conn := c.conn
	if m := c.metrics; m != nil {
		m.inflight.Set(0)
		m.inflightWrites.Set(0)
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	close(c.stop)
	conn.Close()
	for _, op := range queued {
		op.complete(err)
	}
	for _, ops := range pend {
		for _, op := range ops {
			op.complete(err)
		}
	}
}

// connFail handles a transport fault on connection generation gen: the
// first reporter for the live generation wins and runs the reconnect;
// stale reports (an already-replaced connection) and racing reporters
// return immediately. Without a Redial the client fails permanently, as
// it did before reconnects existed.
func (c *PipelinedClient) connFail(gen uint64, cause error) {
	c.mu.Lock()
	if c.err != nil || c.gen != gen || c.reconnecting {
		c.mu.Unlock()
		return
	}
	if c.opts.Redial == nil {
		c.mu.Unlock()
		c.fail(cause)
		return
	}
	c.reconnecting = true
	// Harvest the in-flight windows. Reads are idempotent: requeue them
	// ahead of newer work, to be reissued under fresh tags (the old tags
	// died with the connection). In-flight writes may or may not have
	// been applied — complete them with ErrUncertainWrite and let the
	// caller decide. Writes still queued never touched the wire, so they
	// simply stay queued for the fresh connection.
	tags := make([]uint32, 0, len(c.pending))
	for tag := range c.pending {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	var reads, writes []*pipeOp
	for _, tag := range tags {
		for _, op := range c.pending[tag] {
			if op.write {
				writes = append(writes, op)
			} else {
				op.replay()
				reads = append(reads, op)
			}
		}
	}
	c.pending = make(map[uint32][]*pipeOp)
	c.inflight = 0
	c.inflightW = 0
	c.queue = append(append(make([]*pipeOp, 0, len(reads)+len(c.queue)), reads...), c.queue...)
	if m := c.metrics; m != nil {
		m.inflight.Set(0)
		m.inflightWrites.Set(0)
		m.replayedReads.Add(uint64(len(reads)))
		m.uncertainWrites.Add(uint64(len(writes)))
	}
	old := c.conn
	c.mu.Unlock()

	old.Close()
	uerr := uncertain(cause)
	for _, op := range writes {
		op.complete(uerr)
	}

	retryMax := c.opts.RetryMax
	if retryMax <= 0 {
		retryMax = DefaultReconnectAttempts
	}
	lastErr := cause
	for attempt := 0; attempt < retryMax; attempt++ {
		select {
		case <-c.stop:
			return // Close/fail ran and completed everything outstanding
		case <-time.After(backoff(c.rng, c.opts.RetryBase, c.opts.RetryCap, attempt)):
		}
		nc, err := c.opts.Redial()
		if err != nil {
			lastErr = err
			continue
		}
		feats, err := negotiate(nc, c.opts.Timeout, c.featReq)
		if err != nil {
			nc.Close()
			lastErr = err
			continue
		}
		c.mu.Lock()
		if c.err != nil {
			c.mu.Unlock()
			nc.Close()
			return
		}
		c.conn = nc
		c.bw = bufio.NewWriterSize(nc, 64<<10)
		c.trace = feats&rdma.FeatTrace != 0
		c.compress = feats&rdma.FeatCompress != 0
		c.gen++
		c.reconnecting = false
		c.lastWire = time.Now()
		if m := c.metrics; m != nil {
			m.reconnects.Inc()
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	c.fail(fmt.Errorf("remote: reconnect failed after %d attempts: %w", retryMax, lastErr))
}

// requeueOps returns ops harvested from a bad reply to the pipeline:
// reads go back to the queue head for replay, writes complete with
// ErrUncertainWrite. If the client already failed, everything completes
// with the sticky error instead.
func (c *PipelinedClient) requeueOps(ops []*pipeOp, cause error) {
	var reads, writes []*pipeOp
	for _, op := range ops {
		if op.write {
			writes = append(writes, op)
		} else {
			op.replay()
			reads = append(reads, op)
		}
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		for _, op := range ops {
			op.complete(err)
		}
		return
	}
	c.queue = append(append(make([]*pipeOp, 0, len(reads)+len(c.queue)), reads...), c.queue...)
	if m := c.metrics; m != nil {
		m.replayedReads.Add(uint64(len(reads)))
		m.uncertainWrites.Add(uint64(len(writes)))
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	uerr := uncertain(cause)
	for _, op := range writes {
		op.complete(uerr)
	}
}

// flushable reports whether the flusher has work it can put on the wire
// right now (caller holds mu).
func (c *PipelinedClient) flushable() bool {
	return (len(c.queue) > 0 && c.inflight < c.opts.Window) ||
		(len(c.wqueue) > 0 && c.inflightW < c.opts.WriteWindow)
}

// flushLoop is the doorbell: it waits for queued work and window space,
// moves as much of both queues as fits onto the wire as tagged frames —
// plain reads coalesced into READBATCH-C, epoch reads into
// READEPOCHBATCH, chases into CHASEBATCH, writes into WRITEBATCH-C or
// WRITEEPOCHBATCH-C — and flushes the buffered writer once per wakeup.
// It parks while a reconnect is in progress and resumes against the
// fresh connection. Frame payloads come from the rdma buffer pool and
// return to it once written.
func (c *PipelinedClient) flushLoop() {
	defer c.wg.Done()
	var reqs []rdma.ReadReq     // scratch, reused across wakeups
	var creqs []rdma.ChaseReq   // scratch, reused across wakeups
	var cwreqs []rdma.WriteReqC // scratch, reused across wakeups
	var cbufs [][]byte          // pooled gather/compress buffers, released after encode
	var frames []rdma.Frame     // scratch, reused across wakeups
	for {
		c.mu.Lock()
		for c.err == nil && (c.reconnecting || !c.flushable()) {
			c.cond.Wait()
		}
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		gen := c.gen
		bw := c.bw
		trace := c.trace
		compress := c.compress
		var now time.Time
		if trace {
			now = time.Now() // doorbell timestamp shared by this wakeup's ops
		}
		frames = frames[:0]
		space := c.opts.Window - c.inflight
		for space > 0 && len(c.queue) > 0 {
			// Coalesce the run of reads at the head of the queue. Epoch
			// reads and chases ride their own frames (the reply shapes
			// differ), so a batch never mixes kinds.
			reqs = reqs[:0]
			creqs = creqs[:0]
			var ops []*pipeOp
			replySize := 4
			for space > 0 && len(c.queue) > 0 && len(ops) < c.opts.MaxBatch {
				op := c.queue[0]
				var seg int
				switch {
				case op.chase:
					// Charge the worst case: the reply's size is unknown
					// until the server runs the program.
					seg = chaseReplySize(op.creq)
				case op.wantEp:
					seg = epochRespHdrSize + int(op.size)
				default:
					// Compact reply headers are varints: charge their worst
					// case (compression only shrinks the blob region).
					seg = 12 + int(op.size)
				}
				if len(ops) > 0 && (op.readKind() != ops[0].readKind() ||
					replySize+seg > rdma.MaxFrame) {
					break
				}
				replySize += seg
				if op.chase {
					creqs = append(creqs, op.creq)
				} else {
					reqs = append(reqs, rdma.ReadReq{DS: op.ds, Idx: op.idx, Size: op.size})
				}
				ops = append(ops, op)
				c.queue = c.queue[1:]
				space--
			}
			tag := c.tagFor(ops, false)
			var f rdma.Frame
			switch {
			case ops[0].chase:
				f = rdma.EncodeChaseBatchPooled(tag, creqs)
			case ops[0].wantEp:
				f = rdma.EncodeReadEpochBatchPooled(tag, reqs)
			default:
				f = rdma.EncodeReadBatchCPooled(tag, reqs)
			}
			if trace {
				stampTraceFrame(&f, ops, now)
			}
			frames = append(frames, f)
			if m := c.metrics; m != nil {
				m.batchReads.Observe(uint64(len(ops)))
			}
		}
		if len(c.queue) == 0 {
			c.queue = nil // release the drained backing array
		}
		wspace := c.opts.WriteWindow - c.inflightW
		for wspace > 0 && len(c.wqueue) > 0 {
			// Coalesce writes into one WRITEBATCH-C (or WRITEEPOCHBATCH-C —
			// never mixed), bounded by MaxBatch and the frame limit, with
			// per-object compression and range sub-encoding.
			cwreqs = cwreqs[:0]
			var ops []*pipeOp
			frameSize := 6
			for wspace > 0 && len(c.wqueue) > 0 && len(ops) < c.opts.MaxBatch {
				op := c.wqueue[0]
				dataLen := len(op.data)
				if op.exts != nil {
					dataLen = 0
					for _, e := range op.exts {
						dataLen += int(e.Len)
					}
				}
				tupleBound := rdma.WriteReqCBound(dataLen, len(op.exts), op.wantEp)
				if len(ops) > 0 && (op.wantEp != ops[0].wantEp ||
					frameSize+tupleBound > rdma.MaxFrame) {
					break
				}
				frameSize += tupleBound
				cwreqs = append(cwreqs, c.compactWriteReq(op, compress, &cbufs))
				ops = append(ops, op)
				c.wqueue = c.wqueue[1:]
				wspace--
			}
			tag := c.tagFor(ops, true)
			f, err := rdma.EncodeWriteBatchCPooled(tag, cwreqs, ops[0].wantEp)
			// The encoder copied every blob into the frame payload: the
			// gather/compress buffers can go home now.
			for _, b := range cbufs {
				rdma.PutBuf(b)
			}
			cbufs = cbufs[:0]
			if err != nil {
				// Unreachable by construction (the loop bounds frameSize);
				// fail loudly rather than drop writes on the floor.
				c.mu.Unlock()
				c.fail(err)
				return
			}
			if trace {
				stampTraceFrame(&f, ops, now)
			}
			frames = append(frames, f)
			if m := c.metrics; m != nil {
				m.batchWrites.Observe(uint64(len(ops)))
			}
		}
		if len(c.wqueue) == 0 {
			c.wqueue = nil // release the drained backing array
		}
		if m := c.metrics; m != nil {
			m.inflight.Set(int64(c.inflight))
			m.inflightWrites.Set(int64(c.inflightW))
		}
		c.mu.Unlock()

		var werr error
		for _, f := range frames {
			if werr == nil {
				werr = rdma.WriteFrameCRC(bw, f)
			}
			if werr == nil {
				if m := c.metrics; m != nil {
					m.bytesOut.Add(f.WireSize())
					m.wire.add(f.Op, f.WireSize())
				}
			}
			rdma.PutBuf(f.Payload)
		}
		if werr == nil {
			werr = bw.Flush()
		}
		if werr != nil {
			// The ops this flush registered are harvested by connFail
			// (requeued or completed uncertain); the loop parks until the
			// fresh connection is up.
			c.connFail(gen, werr)
			continue
		}
		c.mu.Lock()
		c.lastWire = time.Now()
		c.mu.Unlock()
	}
}

// stampTraceFrame stamps an outgoing tagged frame of a FeatTrace
// session with its batch's span context and records each op's doorbell
// time. Every tagged frame of such a session carries the fixed-size
// extension — an all-zero context when nothing in the batch is traced —
// so both sides' framing stays deterministic. When the batch mixes
// traces, the first sampled op's context wins (the server can label its
// span with only one).
func stampTraceFrame(f *rdma.Frame, ops []*pipeOp, now time.Time) {
	var ctx obs.SpanContext
	for _, op := range ops {
		op.sentAt = now
		if op.ctx.Sampled && !ctx.Sampled {
			ctx = op.ctx
		}
	}
	if !ctx.Sampled {
		for _, op := range ops {
			if op.ctx.TraceID != 0 {
				ctx = op.ctx
				break
			}
		}
	}
	f.SetTraceCtx(ctx.TraceID, ctx.SpanID, ctx.Sampled)
}

// tagFor registers a batch of ops in flight under a fresh tag (caller
// holds mu; ops already popped from their queue), charging the window
// matching their direction.
func (c *PipelinedClient) tagFor(ops []*pipeOp, write bool) uint32 {
	if write {
		c.inflightW += len(ops)
	} else {
		c.inflight += len(ops)
	}
	c.nextTag++
	c.pending[c.nextTag] = ops
	return c.nextTag
}

// readLoop demultiplexes completions by tag. Any transport-level
// problem — read error, checksum mismatch, unknown tag, malformed
// batch — reports the connection generation to connFail and parks until
// reconnected (or until the client fails for good). Frame payloads are
// pooled: each is released back to the rdma buffer pool as soon as its
// contents are copied out or formatted into an error.
func (c *PipelinedClient) readLoop() {
	defer c.wg.Done()
	var esegs []rdma.EpochSeg    // scratch, reused across frames
	var cress []rdma.ChaseResult // scratch, reused across frames
	var csegs []rdma.DataSegC    // scratch, reused across frames
	var ackScratch []uint64      // ACKBATCH-C reject bitmap scratch
	for {
		c.mu.Lock()
		for c.err == nil && c.reconnecting {
			c.cond.Wait()
		}
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		gen := c.gen
		conn := c.conn
		trace := c.trace
		c.mu.Unlock()

		if d := c.opts.Timeout; d > 0 {
			if dl, ok := conn.(connDeadline); ok {
				dl.SetReadDeadline(time.Now().Add(d))
			}
		}
		f, err := rdma.ReadFramePooled(conn, trace)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// An idle connection hitting the read deadline is benign:
				// nothing is owed. With ops in flight and no wire activity
				// for a full Timeout, the stream is stalled — abandon it.
				// (A deadline that fired mid-frame desynchronizes the
				// stream; the next read then fails the tag or checksum
				// check and converges to the same reconnect.)
				c.mu.Lock()
				stalled := c.gen == gen && (c.inflight > 0 || c.inflightW > 0) &&
					time.Since(c.lastWire) >= c.opts.Timeout
				c.mu.Unlock()
				if !stalled {
					continue
				}
				if m := c.metrics; m != nil {
					m.timeouts.Inc()
				}
				err = fmt.Errorf("%w (no reply in %v with ops in flight)", ErrTimeout, c.opts.Timeout)
			}
			c.connFail(gen, err)
			continue
		}
		c.mu.Lock()
		c.lastWire = time.Now()
		c.mu.Unlock()
		if m := c.metrics; m != nil {
			m.bytesIn.Add(f.WireSize())
			m.wire.add(f.Op, f.WireSize())
		}
		ops, ok := c.takePending(f.Tag)
		if !ok {
			err := fmt.Errorf("remote: unknown completion tag %d (%s)", f.Tag, f.Op)
			rdma.PutBuf(f.Payload)
			c.connFail(gen, err)
			continue
		}
		var sQueueUS, sServiceUS uint32
		stamped := false
		if trace && f.HasExt {
			_, sQueueUS, sServiceUS = f.ServerStamp()
			stamped = true
		}
		switch f.Op {
		case rdma.OpDataEpochBatch:
			var derr error
			esegs, derr = rdma.DecodeDataEpochBatchInto(f.Payload, esegs)
			if derr == nil && len(esegs) != len(ops) {
				derr = fmt.Errorf("remote: DATAEPOCHBATCH has %d segments, want %d", len(esegs), len(ops))
			}
			if derr != nil {
				// Framing is untrustworthy past this point: replay these
				// reads on a fresh connection.
				rdma.PutBuf(f.Payload)
				c.requeueOps(ops, derr)
				c.connFail(gen, derr)
				continue
			}
			for i, op := range ops {
				copy(op.dst, esegs[i].Data)
				op.epoch = esegs[i].Epoch
				c.finishOp(op, stamped, sQueueUS, sServiceUS)
				op.complete(nil)
			}
			rdma.PutBuf(f.Payload)
		case rdma.OpChaseData:
			var derr error
			cress, derr = rdma.DecodeChaseDataInto(f.Payload, cress)
			if derr == nil && len(cress) != len(ops) {
				derr = fmt.Errorf("remote: CHASEDATA has %d results, want %d", len(cress), len(ops))
			}
			if derr != nil {
				// Framing is untrustworthy past this point: chases are
				// read-only, so replay them on a fresh connection.
				rdma.PutBuf(f.Payload)
				c.requeueOps(ops, derr)
				c.connFail(gen, derr)
				continue
			}
			for i, op := range ops {
				op.cres = copyChaseResult(cress[i])
				c.finishOp(op, stamped, sQueueUS, sServiceUS)
				op.complete(nil)
			}
			rdma.PutBuf(f.Payload)
		case rdma.OpDataBatchC:
			var derr error
			csegs, derr = rdma.DecodeDataBatchCInto(f.Payload, csegs[:0])
			if derr == nil && len(csegs) != len(ops) {
				derr = fmt.Errorf("remote: DATABATCH-C has %d segments, want %d", len(csegs), len(ops))
			}
			if derr == nil {
				for i := range csegs {
					if int(csegs[i].RawLen) != len(ops[i].dst) {
						derr = fmt.Errorf("remote: DATABATCH-C segment %d is %d bytes, want %d",
							i, csegs[i].RawLen, len(ops[i].dst))
						break
					}
				}
			}
			if derr != nil {
				// Framing is untrustworthy past this point: replay these
				// reads on a fresh connection.
				rdma.PutBuf(f.Payload)
				c.requeueOps(ops, derr)
				c.connFail(gen, derr)
				continue
			}
			bad := -1
			for i, op := range ops {
				seg := &csegs[i]
				switch seg.Scheme {
				case rdma.SchemeZero:
					clear(op.dst)
				case rdma.SchemeLZ:
					if lerr := rdma.LZDecompress(op.dst, seg.Data); lerr != nil {
						// Corrupt compressed block behind a valid checksum:
						// the remaining reads of this frame replay on a
						// fresh connection (the completed prefix stands —
						// reads are idempotent).
						derr, bad = lerr, i
					}
				default:
					copy(op.dst, seg.Data)
				}
				if bad >= 0 {
					break
				}
				c.finishOp(op, stamped, sQueueUS, sServiceUS)
				op.complete(nil)
			}
			rdma.PutBuf(f.Payload)
			if bad >= 0 {
				c.requeueOps(ops[bad:], derr)
				c.connFail(gen, derr)
				continue
			}
		case rdma.OpAckBatchC:
			n, rejected, any, derr := rdma.DecodeAckBatchC(f.Payload, ackScratch)
			if rejected != nil {
				ackScratch = rejected
			}
			rdma.PutBuf(f.Payload)
			if derr == nil && n != len(ops) {
				derr = fmt.Errorf("remote: ACKBATCH-C acknowledges %d writes, want %d", n, len(ops))
			}
			if derr != nil {
				// A torn ack means the batch outcome is unknowable over this
				// stream: the writes surface as uncertain for the caller to
				// reissue.
				c.requeueOps(ops, derr)
				c.connFail(gen, derr)
				continue
			}
			for i, op := range ops {
				if any && rejected[i/64]&(1<<(uint(i)%64)) != 0 {
					// The peer refused to splice onto a stale base: a
					// definitive completion, not a transport fault — the
					// replication layer marks the member divergent and
					// resyncs it with full objects.
					op.complete(ErrStaleRangeBase)
					continue
				}
				c.finishOp(op, stamped, sQueueUS, sServiceUS)
				op.complete(nil)
			}
		case rdma.OpErrTag:
			// Definitive server-level rejection: the connection is fine
			// and the answer is final — never retried.
			err := fmt.Errorf("remote: server error: %s", f.Payload)
			rdma.PutBuf(f.Payload)
			c.completeAll(ops, err)
		default:
			err := fmt.Errorf("remote: unexpected frame %s in pipelined stream", f.Op)
			rdma.PutBuf(f.Payload)
			c.requeueOps(ops, err)
			c.connFail(gen, err)
			continue
		}
	}
}

// takePending removes and returns the ops registered under tag, freeing
// their window slots (a tag's ops are homogeneous: all reads or all
// writes, so one op decides which window drains).
func (c *PipelinedClient) takePending(tag uint32) ([]*pipeOp, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ops, ok := c.pending[tag]
	if !ok {
		return nil, false
	}
	delete(c.pending, tag)
	if len(ops) > 0 && ops[0].write {
		c.inflightW -= len(ops)
		if m := c.metrics; m != nil {
			m.inflightWrites.Set(int64(c.inflightW))
		}
	} else {
		c.inflight -= len(ops)
		if m := c.metrics; m != nil {
			m.inflight.Set(int64(c.inflight))
		}
	}
	c.cond.Broadcast()
	return ops, true
}

func (c *PipelinedClient) completeAll(ops []*pipeOp, err error) {
	for _, op := range ops {
		op.complete(err)
	}
}

func (c *PipelinedClient) observeOp(op *pipeOp) {
	m := c.metrics
	if m == nil || op.start.IsZero() {
		return
	}
	ns := uint64(time.Since(op.start).Nanoseconds())
	if op.write {
		m.writeNS.Observe(ns)
	} else {
		m.readNS.Observe(ns)
	}
}

// Op label values for slow-op records and merged spans.
const (
	opNameRead  = "read"
	opNameWrite = "write"
)

// finishOp accounts one successfully completed op. Beyond the latency
// histograms, on a FeatTrace session with a stamped reply it decomposes
// the op into its four clock-offset-free components —
//
//	total        = complete − enqueue
//	client_queue = doorbell − enqueue
//	rtt          = complete − doorbell
//	server busy  = queue + service        (from the server's stamp)
//	wire         = rtt − busy, clamped ≥ 0 (the residual: both directions)
//
// so client_queue + wire + server_queue + server_service == total by
// construction — then feeds the cards_attrib_* series and the slow-op
// flight recorder, and (for sampled ops) emits the merged client+server
// spans, placing the server's busy time midway through the wire
// residual (the unbiased placement without synchronized clocks). Runs
// on the reader goroutine; off the sampled path it allocates nothing.
func (c *PipelinedClient) finishOp(op *pipeOp, stamped bool, queueUS, serviceUS uint32) {
	c.observeOp(op)
	if c.hub == nil || !stamped || op.probe || op.start.IsZero() || op.sentAt.IsZero() {
		return
	}
	now := time.Now()
	totalUS := uint64(now.Sub(op.start).Microseconds())
	cqUS := uint64(op.sentAt.Sub(op.start).Microseconds())
	rttUS := uint64(now.Sub(op.sentAt).Microseconds())
	busyUS := uint64(queueUS) + uint64(serviceUS)
	var wireUS uint64
	if rttUS > busyUS {
		wireUS = rttUS - busyUS
	}
	c.attrib.observe(op.ds, cqUS, wireUS, uint64(queueUS), uint64(serviceUS))
	name := opNameRead
	if op.write {
		name = opNameWrite
	}
	var nowUS uint64
	if t := c.hub.Tracer; t != nil {
		nowUS = t.Now()
	}
	startUS := nowUS - totalUS
	if totalUS > nowUS {
		startUS = 0
	}
	c.hub.Offer(obs.SlowOp{
		TraceID: op.ctx.TraceID, SpanID: op.ctx.SpanID,
		Op: name, DS: int(op.ds), Idx: int(op.idx), Shard: c.shard,
		Attempts: op.attempts + 1, Sampled: op.ctx.Sampled,
		StartUS: startUS, TotalUS: totalUS,
		ClientQueueUS: cqUS, WireUS: wireUS,
		ServerQueueUS: uint64(queueUS), ServerServiceUS: uint64(serviceUS),
	})
	if !op.ctx.Sampled || c.hub.Tracer == nil {
		return
	}
	sentUS := nowUS - rttUS
	c.hub.Emit(obs.TraceEvent{
		TS: startUS, Dur: totalUS, Cat: "remote", Name: name,
		TID: int(op.ds), Trace: op.ctx.TraceID,
		Arg1Name: "attempts", Arg1: int64(op.attempts + 1),
		Arg2Name: "obj", Arg2: int64(op.idx),
	})
	c.hub.Emit(obs.TraceEvent{
		TS: sentUS + wireUS/2, Dur: uint64(queueUS),
		Cat: "server", Name: "queue",
		TID: int(op.ds), Trace: op.ctx.TraceID,
	})
	c.hub.Emit(obs.TraceEvent{
		TS: sentUS + wireUS/2 + uint64(queueUS), Dur: uint64(serviceUS),
		Cat: "server", Name: "service",
		TID: int(op.ds), Trace: op.ctx.TraceID,
	})
}
