package remote

import (
	"strconv"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/stats"
)

// Metric names exported by the remote memory node. Latencies are
// wall-clock (this layer runs on real sockets, unlike farmem's virtual
// cycles), hence the _ns suffix.
const (
	// Server side: read and write histograms observed around the full
	// handle of each batch (decode + store access + response encode), and
	// the version handshake.
	MetricReadNS  = "cards_remote_read_ns"
	MetricWriteNS = "cards_remote_write_ns"
	MetricPingNS  = "cards_remote_ping_ns"

	MetricReads  = "cards_remote_reads_total"
	MetricWrites = "cards_remote_writes_total"
	MetricErrors = "cards_remote_errors_total"

	// Wire bytes as framed by the rdma transport (header included).
	MetricBytesIn  = "cards_remote_bytes_in_total"
	MetricBytesOut = "cards_remote_bytes_out_total"

	// MetricInflight counts requests currently being served across all
	// connections; MetricConns the open connections.
	MetricInflight   = "cards_remote_inflight_requests"
	MetricConns      = "cards_remote_connections"
	MetricConnsTotal = "cards_remote_connections_total"

	// MetricResidentObjects is the far-tier population, published by
	// ObsSnapshot.
	MetricResidentObjects = "cards_remote_resident_objects"

	// Client side mirrors of the verb latencies, spanning enqueue to
	// completion.
	MetricClientReadNS  = "cards_remote_client_read_ns"
	MetricClientWriteNS = "cards_remote_client_write_ns"

	// Pipelined data path: read batch frames served and their sizes
	// (reads per batch) on the server; in-flight window depth and
	// doorbell batch sizes on the client.
	MetricReadBatches     = "cards_remote_read_batches_total"
	MetricBatchReads      = "cards_remote_batch_reads"
	MetricClientInflight  = "cards_remote_client_inflight_ops"
	MetricClientBatchSize = "cards_remote_client_batch_reads"

	// Write-back pipeline: write batch frames served and their sizes
	// (writes per batch) on the server; the client's write-window depth
	// and per-doorbell write batch sizes.
	MetricWriteBatches         = "cards_remote_write_batches_total"
	MetricBatchWrites          = "cards_remote_batch_writes"
	MetricClientInflightWrites = "cards_remote_client_inflight_writes"
	MetricClientWriteBatchSize = "cards_remote_client_batch_writes"

	// Traversal offload: CHASEBATCH frames served, traversal programs
	// executed, and the hops walked on the client's behalf — each hop is
	// a round trip the session did not pay.
	MetricChaseBatches = "cards_remote_chase_batches_total"
	MetricChases       = "cards_remote_chases_total"
	MetricChaseHops    = "cards_remote_chase_hops_total"
	MetricChaseNS      = "cards_remote_chase_ns"

	// Fault tolerance: successful redials, stalled streams abandoned at
	// their deadline, writes whose outcome the transport could not
	// determine, and reads replayed onto a fresh connection after a
	// reconnect.
	MetricClientReconnects      = "cards_remote_client_reconnects_total"
	MetricClientTimeouts        = "cards_remote_client_timeouts_total"
	MetricClientUncertainWrites = "cards_remote_client_uncertain_writes_total"
	MetricClientReplayedReads   = "cards_remote_client_replayed_reads_total"

	// Latency attribution (FeatTrace sessions only). Every completed op
	// decomposes into four clock-offset-free durations — client queue
	// (enqueue to doorbell), wire (RTT minus the server-reported busy
	// time, both flight directions), server queue (receive to worker
	// dispatch), and server service — one histogram per (ds, shard,
	// component), all in microseconds, plus the op count the
	// decomposition covers.
	MetricAttribUS  = "cards_attrib_us"
	MetricAttribOps = "cards_attrib_ops_total"
)

// Attribution component label values.
const (
	AttribClientQueue   = "client_queue"
	AttribWire          = "wire"
	AttribServerQueue   = "server_queue"
	AttribServerService = "server_service"
)

// serverMetrics caches the registry series the hot request loop touches,
// so serving a verb never takes the registry map lock.
type serverMetrics struct {
	reads, writes, errors *stats.Counter
	bytesIn, bytesOut     *stats.Counter
	connsTotal            *stats.Counter
	readBatches           *stats.Counter
	writeBatches          *stats.Counter
	chaseBatches          *stats.Counter
	chases, chaseHops     *stats.Counter
	inflight, conns       *stats.Gauge
	readNS, writeNS       *stats.Histogram
	pingNS                *stats.Histogram
	batchReads            *stats.Histogram
	batchWrites           *stats.Histogram
	chaseNS               *stats.Histogram
	wire                  *wireMetrics
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reads:        reg.Counter(MetricReads),
		writes:       reg.Counter(MetricWrites),
		errors:       reg.Counter(MetricErrors),
		bytesIn:      reg.Counter(MetricBytesIn),
		bytesOut:     reg.Counter(MetricBytesOut),
		connsTotal:   reg.Counter(MetricConnsTotal),
		readBatches:  reg.Counter(MetricReadBatches),
		writeBatches: reg.Counter(MetricWriteBatches),
		chaseBatches: reg.Counter(MetricChaseBatches),
		chases:       reg.Counter(MetricChases),
		chaseHops:    reg.Counter(MetricChaseHops),
		inflight:     reg.Gauge(MetricInflight),
		conns:        reg.Gauge(MetricConns),
		readNS:       reg.Histogram(MetricReadNS),
		writeNS:      reg.Histogram(MetricWriteNS),
		pingNS:       reg.Histogram(MetricPingNS),
		batchReads:   reg.Histogram(MetricBatchReads),
		batchWrites:  reg.Histogram(MetricBatchWrites),
		chaseNS:      reg.Histogram(MetricChaseNS),
		wire:         newWireMetrics(reg),
	}
}

// Obs returns the server's metric registry.
func (s *Server) Obs() *obs.Registry { return s.reg }

// Tracer returns the server's ring tracer (nil unless configured).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// ObsSnapshot publishes the point-in-time gauges only the snapshot
// moment can know (resident object population) and returns a snapshot
// of the whole registry.
func (s *Server) ObsSnapshot() *obs.Snapshot {
	s.reg.Gauge(MetricResidentObjects).Set(int64(s.Store.Len()))
	return s.reg.Snapshot()
}

// observePing records one served version handshake: its latency and a
// span into the trace ring (category "remote", one trace thread per
// connection).
func (s *Server) observePing(connID int, start time.Time, startUS uint64) {
	ns := uint64(time.Since(start).Nanoseconds())
	s.metrics.pingNS.Observe(ns)
	if s.tracer != nil {
		s.tracer.Emit(obs.TraceEvent{
			TS:   startUS,
			Dur:  ns / 1000,
			Cat:  "remote",
			Name: rdma.OpPing.String(),
			TID:  connID,
		})
	}
}

// observeBatch records one served read batch (op names the verb): the
// batch-size histogram, the per-read counters, and one trace span
// carrying the batch size and the distributed trace ID (0 when the
// batch carried none).
func (s *Server) observeBatch(op rdma.Op, connID, n int, start time.Time, startUS uint64, trace uint64) {
	ns := uint64(time.Since(start).Nanoseconds())
	s.metrics.readBatches.Inc()
	s.metrics.batchReads.Observe(uint64(n))
	s.metrics.reads.Add(uint64(n))
	s.metrics.readNS.Observe(ns)
	if s.tracer != nil {
		s.tracer.Emit(obs.TraceEvent{
			TS:       startUS,
			Dur:      ns / 1000,
			Cat:      "remote",
			Name:     op.String(),
			TID:      connID,
			Trace:    trace,
			Arg1Name: "reads", Arg1: int64(n),
		})
	}
}

// observeWriteBatch records one served write batch (op names the verb):
// the batch-size histogram, the per-write counters, and one trace span
// carrying the batch size and the distributed trace ID (0 when the
// batch carried none).
func (s *Server) observeWriteBatch(op rdma.Op, connID, n int, start time.Time, startUS uint64, trace uint64) {
	ns := uint64(time.Since(start).Nanoseconds())
	s.metrics.writeBatches.Inc()
	s.metrics.batchWrites.Observe(uint64(n))
	s.metrics.writes.Add(uint64(n))
	s.metrics.writeNS.Observe(ns)
	if s.tracer != nil {
		s.tracer.Emit(obs.TraceEvent{
			TS:       startUS,
			Dur:      ns / 1000,
			Cat:      "remote",
			Name:     op.String(),
			TID:      connID,
			Trace:    trace,
			Arg1Name: "writes", Arg1: int64(n),
		})
	}
}

// pipeMetrics caches the pipelined client's registry series. It is
// installed at construction (PipelineOpts.Obs) — before the background
// goroutines start — so the hot paths read it without synchronization.
type pipeMetrics struct {
	readNS, writeNS   *stats.Histogram
	batchReads        *stats.Histogram
	batchWrites       *stats.Histogram
	inflight          *stats.Gauge
	inflightWrites    *stats.Gauge
	bytesIn, bytesOut *stats.Counter
	reconnects        *stats.Counter
	timeouts          *stats.Counter
	uncertainWrites   *stats.Counter
	replayedReads     *stats.Counter
	wire              *wireMetrics
}

// attribCache holds the per-DS attribution series of one pipelined
// client. It is owned by the reader goroutine — the only writer — so
// the steady state is a lock-free, allocation-free map hit; the
// registry lock is taken once per data structure, at first sight.
type attribCache struct {
	reg   *obs.Registry
	shard string
	m     map[uint32]*dsAttrib
}

// dsAttrib caches one data structure's four component histograms and
// its op counter.
type dsAttrib struct {
	ops           *stats.Counter
	clientQueue   *stats.Histogram
	wire          *stats.Histogram
	serverQueue   *stats.Histogram
	serverService *stats.Histogram
}

// newAttribCache builds the cache; nil when reg is nil (attribution
// then disabled).
func newAttribCache(reg *obs.Registry, shard string) *attribCache {
	if reg == nil {
		return nil
	}
	return &attribCache{reg: reg, shard: shard, m: make(map[uint32]*dsAttrib)}
}

func (a *attribCache) get(ds uint32) *dsAttrib {
	if da, ok := a.m[ds]; ok {
		return da
	}
	dss := strconv.FormatUint(uint64(ds), 10)
	lbl := func(component string) []string {
		if a.shard == "" {
			return []string{"ds", dss, "component", component}
		}
		return []string{"ds", dss, "shard", a.shard, "component", component}
	}
	ops := []string{"ds", dss}
	if a.shard != "" {
		ops = append(ops, "shard", a.shard)
	}
	da := &dsAttrib{
		ops:           a.reg.Counter(MetricAttribOps, ops...),
		clientQueue:   a.reg.Histogram(MetricAttribUS, lbl(AttribClientQueue)...),
		wire:          a.reg.Histogram(MetricAttribUS, lbl(AttribWire)...),
		serverQueue:   a.reg.Histogram(MetricAttribUS, lbl(AttribServerQueue)...),
		serverService: a.reg.Histogram(MetricAttribUS, lbl(AttribServerService)...),
	}
	a.m[ds] = da
	return da
}

// observe feeds one completed op's decomposition into the DS's series.
func (a *attribCache) observe(ds uint32, cqUS, wireUS, sqUS, ssUS uint64) {
	if a == nil {
		return
	}
	da := a.get(ds)
	da.ops.Inc()
	da.clientQueue.Observe(cqUS)
	da.wire.Observe(wireUS)
	da.serverQueue.Observe(sqUS)
	da.serverService.Observe(ssUS)
}

func newPipeMetrics(reg *obs.Registry) *pipeMetrics {
	if reg == nil {
		return nil
	}
	return &pipeMetrics{
		readNS:          reg.Histogram(MetricClientReadNS),
		writeNS:         reg.Histogram(MetricClientWriteNS),
		batchReads:      reg.Histogram(MetricClientBatchSize),
		batchWrites:     reg.Histogram(MetricClientWriteBatchSize),
		inflight:        reg.Gauge(MetricClientInflight),
		inflightWrites:  reg.Gauge(MetricClientInflightWrites),
		bytesIn:         reg.Counter(MetricBytesIn),
		bytesOut:        reg.Counter(MetricBytesOut),
		reconnects:      reg.Counter(MetricClientReconnects),
		timeouts:        reg.Counter(MetricClientTimeouts),
		uncertainWrites: reg.Counter(MetricClientUncertainWrites),
		replayedReads:   reg.Counter(MetricClientReplayedReads),
		wire:            newWireMetrics(reg),
	}
}
