package remote

// The compact wire tier, server side and shared policy: bit-packed
// batch frames (rdma/compact.go) that carry every plain read and every
// write, adaptive per-object compression, and dirty-range write-back
// with read-modify-write application.
//
// Compression is decided online, per data structure: both endpoints
// track an EWMA of the observed wire/raw ratio and stop attempting
// compression for a DS whose objects do not shrink, re-probing every
// probeEvery objects so a workload whose data turns compressible is
// noticed. The decision is a heuristic — correctness never depends on
// it (every scheme is self-describing on the wire).
//
// Range writes ship only the modified byte extents of an object; the
// server splices them into the stored image under the store lock. A
// plain range write is unconditional (the farmem runtime serializes
// write-backs per object, and reissue after an uncertain ack is a full
// object). An epoch-stamped range write is conditional: it needs the
// stored image to be the immediate predecessor of the epoch it stamps —
// a replica that missed an epoch has a stale base, and splicing into it
// would manufacture an image that never existed. Those tuples are
// rejected via the ACKBATCH-C bitmap; the sender marks the member
// divergent and lets anti-entropy resync repair it with full objects.

import (
	"errors"
	"sync/atomic"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/stats"
)

// Wire-efficiency series (the compact tier).
const (
	// MetricWireBytes counts bytes on the wire per frame verb
	// (label "verb"), both directions, payload framing included.
	MetricWireBytes = "cards_wire_bytes_total"
	// MetricWireCompressRatio observes wire/raw per-mille for every
	// object that went through a compression attempt.
	MetricWireCompressRatio = "cards_wire_compression_ratio_permille"
	// MetricRangeWrites counts range-write tuples applied.
	MetricRangeWrites = "cards_remote_range_writes_total"
	// MetricRangeBytesSaved accumulates objSize − shipped bytes over
	// range tuples: what full-object write-back would have cost extra.
	MetricRangeBytesSaved = "cards_wire_range_bytes_saved_total"
	// MetricRangeRejects counts epoch range tuples rejected for a stale
	// base image.
	MetricRangeRejects = "cards_remote_range_rejects_total"
)

// ErrStaleRangeBase is the definitive completion of an epoch-stamped
// range write whose target's stored image missed an epoch: the peer
// cannot splice extents into a stale base. The caller (the replica
// fan-out) marks the member divergent; resync repairs it with full
// objects.
var ErrStaleRangeBase = errors.New("remote: range write rejected: stale base image on peer")

// wireMetrics caches the verb-labeled wire-byte counters plus the
// compression and range-write series, so the hot paths never touch the
// registry map lock. Built once per endpoint (server or pipelined
// client) at construction.
type wireMetrics struct {
	byVerb       map[rdma.Op]*stats.Counter
	other        *stats.Counter
	ratio        *stats.Histogram
	rangeWrites  *stats.Counter
	rangeSaved   *stats.Counter
	rangeRejects *stats.Counter
}

func newWireMetrics(reg *obs.Registry) *wireMetrics {
	ops := []rdma.Op{
		rdma.OpReadEpochBatch, rdma.OpDataEpochBatch,
		rdma.OpChaseBatch, rdma.OpChaseData,
		rdma.OpReadBatchC, rdma.OpDataBatchC, rdma.OpWriteBatchC,
		rdma.OpWriteEpochBatchC, rdma.OpAckBatchC,
	}
	m := &wireMetrics{
		byVerb:       make(map[rdma.Op]*stats.Counter, len(ops)),
		other:        reg.Counter(MetricWireBytes, "verb", "other"),
		ratio:        reg.Histogram(MetricWireCompressRatio),
		rangeWrites:  reg.Counter(MetricRangeWrites),
		rangeSaved:   reg.Counter(MetricRangeBytesSaved),
		rangeRejects: reg.Counter(MetricRangeRejects),
	}
	for _, op := range ops {
		m.byVerb[op] = reg.Counter(MetricWireBytes, "verb", op.String())
	}
	return m
}

// add charges one frame's wire bytes to its verb's counter. The map is
// immutable after construction, so concurrent adds are safe.
func (m *wireMetrics) add(op rdma.Op, n uint64) {
	if m == nil {
		return
	}
	if c, ok := m.byVerb[op]; ok {
		c.Add(n)
		return
	}
	m.other.Add(n)
}

// observeRatio records one compression attempt's outcome.
func (m *wireMetrics) observeRatio(permille uint64) {
	if m != nil {
		m.ratio.Observe(permille)
	}
}

// Adaptive compression policy: one packed word per DS slot.
//
//	bits  0..15 — EWMA of wire/raw per-mille (0 = no observation yet)
//	bits 16..31 — objects skipped since the last probe
//
// Updates are load/store rather than CAS: a lost update under a race
// costs one stale decision, which the EWMA absorbs — the policy is a
// heuristic, not a correctness mechanism.
const (
	policySlots       = 256 // DS slots (power of two; collisions just share a verdict)
	probePeriod       = 32  // re-probe an incompressible DS every Nth object
	compressPermille  = 900 // compress while the EWMA beats this ratio
	policyMinPermille = 1   // floor so a stored EWMA is never mistaken for "unseen"
)

type compressPolicy struct {
	state [policySlots]atomic.Uint64
}

func (p *compressPolicy) slot(ds uint32) *atomic.Uint64 {
	return &p.state[ds&(policySlots-1)]
}

// shouldCompress reports whether the next object of ds is worth a
// compression attempt: always while unseen or historically shrinking,
// every probePeriod-th object otherwise.
func (p *compressPolicy) shouldCompress(ds uint32) bool {
	s := p.slot(ds)
	v := s.Load()
	ewma := v & 0xFFFF
	if ewma == 0 || ewma < compressPermille {
		return true
	}
	skip := (v>>16)&0xFFFF + 1
	probe := skip >= probePeriod
	if probe {
		skip = 0
	}
	s.Store(v&^uint64(0xFFFF0000) | skip<<16)
	return probe
}

// observe feeds one attempt's wire/raw outcome into the DS's EWMA
// (weight 1/8). A failed attempt reports wireLen == rawLen.
func (p *compressPolicy) observe(ds uint32, rawLen, wireLen int) {
	if rawLen <= 0 {
		return
	}
	ratio := uint64(wireLen) * 1000 / uint64(rawLen)
	if ratio < policyMinPermille {
		ratio = policyMinPermille
	}
	if ratio > 0xFFFF {
		ratio = 0xFFFF
	}
	s := p.slot(ds)
	v := s.Load()
	ewma := v & 0xFFFF
	if ewma == 0 {
		ewma = ratio
	} else {
		ewma = (ewma*7 + ratio) / 8
	}
	s.Store(v&^uint64(0xFFFF) | ewma)
}

// WriteRange splices the extents' bytes (concatenated in raw) into the
// stored object, which is first grown or truncated to objSize — the
// read-modify-write the range sub-encoding relies on. The splice is
// atomic under the store lock. Extents were validated against objSize
// at decode time.
func (s *ObjectStore) WriteRange(ds, idx, objSize uint32, exts []rdma.Extent, raw []byte) {
	k := [2]uint32{ds, idx}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spliceLocked(k, objSize, exts, raw)
}

// WriteRangeEpoch is WriteRange with the replication layer's
// conditional-apply contract, extended for partial images: the splice
// needs a base at exactly the predecessor epoch (or at/above the
// stamped epoch, where reapplying the same bytes is a no-op — the
// idempotent replay of an uncertain ack). A base below the predecessor
// missed an epoch; splicing into it would fabricate state, so the
// write is rejected and the sender must fall back to full objects.
func (s *ObjectStore) WriteRangeEpoch(ds, idx uint32, epoch uint64, objSize uint32, exts []rdma.Extent, raw []byte) (rejected bool) {
	k := [2]uint32{ds, idx}
	s.mu.Lock()
	defer s.mu.Unlock()
	stored := s.ep[k]
	if stored > epoch {
		return false // newer image already present: obsolete tuple, drop with a positive ack
	}
	if stored+1 < epoch {
		return true // missed an epoch: the base is stale, cannot splice
	}
	s.spliceLocked(k, objSize, exts, raw)
	s.ep[k] = epoch
	return false
}

func (s *ObjectStore) spliceLocked(k [2]uint32, objSize uint32, exts []rdma.Extent, raw []byte) {
	obj := s.m[k]
	if uint32(len(obj)) != objSize {
		nb := make([]byte, objSize)
		copy(nb, obj)
		obj = nb
		s.m[k] = obj
	}
	off := uint32(0)
	for _, e := range exts {
		copy(obj[e.Off:e.Off+e.Len], raw[off:off+e.Len])
		off += e.Len
	}
}

// serveBatchC handles one READBATCH-C frame on a worker goroutine. Each
// object is staged, classified (zero /
// compressed / raw — compression only when the session negotiated
// FeatCompress and the adaptive policy expects the DS to shrink), and
// packed into one DATABATCH-C reply by the worker's pooled builder.
func (s *Server) serveBatchC(j batchJob, connID int, send func(rdma.Frame) error, trace, compress bool, scratch []rdma.ReadReq, cb *rdma.DataBatchCBuilder) []rdma.ReadReq {
	f := j.f
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	var startUS uint64
	if s.tracer != nil {
		startUS = s.tracer.Now()
	}
	s.metrics.wire.add(f.Op, f.WireSize())
	reqs, err := rdma.DecodeReadBatchCInto(f.Payload, scratch[:0])
	if err != nil {
		s.metrics.errors.Inc()
		resp := rdma.ErrTagFrame(f.Tag, err.Error())
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return scratch
	}
	size := 6 + 13*len(reqs)
	for _, r := range reqs {
		size += int(r.Size)
	}
	if size > rdma.MaxFrame {
		s.metrics.errors.Inc()
		resp := rdma.ErrTagFrame(f.Tag, "batch reply exceeds frame limit")
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return reqs
	}
	// A batch with no compression candidates takes the reserved-header
	// layout: the staged object bytes become the frame payload directly,
	// skipping the copy-assembly of the LZ-capable path.
	tryBatch := false
	if compress {
		for _, r := range reqs {
			if s.cpolicy.shouldCompress(r.DS) {
				tryBatch = true
				break
			}
		}
	}
	cb.Reset()
	if !tryBatch {
		cb.Begin(reqs)
	}
	for _, r := range reqs {
		buf := cb.Stage(int(r.Size))
		s.Store.ReadInto(r.DS, r.Idx, buf)
		try := tryBatch && s.cpolicy.shouldCompress(r.DS)
		scheme, wireLen := cb.Add(buf, try)
		if try && scheme != rdma.SchemeZero {
			s.cpolicy.observe(r.DS, len(buf), wireLen)
			if len(buf) > 0 {
				s.metrics.wire.observeRatio(uint64(wireLen) * 1000 / uint64(len(buf)))
			}
		}
	}
	resp, err := cb.Frame(f.Tag)
	if err != nil {
		s.metrics.errors.Inc()
		resp = rdma.ErrTagFrame(f.Tag, err.Error())
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return reqs
	}
	s.observeBatch(f.Op, connID, len(reqs), start, startUS, reqTrace(f))
	s.metrics.wire.add(resp.Op, resp.WireSize())
	s.stamp(&resp, trace, j.recv, start)
	send(resp)
	rdma.PutBuf(resp.Payload)
	return reqs
}

// compactWriteScratch is the per-worker reusable state of the compact
// write path: decoded tuples, the shared extent arena, the reject
// bitmap, and materialization buffers (one zeroed, one for LZ output).
type compactWriteScratch struct {
	reqs []rdma.WriteReqC
	exts []rdma.Extent
	rej  []uint64
	lz   []byte // LZ decompression target
	zero []byte // kept all-zero for SchemeZero tuples
}

func (cw *compactWriteScratch) release() {
	rdma.PutBuf(cw.lz)
	rdma.PutBuf(cw.zero)
	cw.lz, cw.zero = nil, nil
}

// materialize returns tuple r's raw bytes, decompressing or zero-
// extending into the worker's scratch as the scheme demands.
func (cw *compactWriteScratch) materialize(r *rdma.WriteReqC) ([]byte, error) {
	n := int(r.RawLen)
	switch r.Scheme {
	case rdma.SchemeZero:
		if cap(cw.zero) < n {
			rdma.PutBuf(cw.zero)
			cw.zero = rdma.GetBuf(n)
			clear(cw.zero[:cap(cw.zero)])
		}
		return cw.zero[:n], nil
	case rdma.SchemeLZ:
		if cap(cw.lz) < n {
			rdma.PutBuf(cw.lz)
			cw.lz = rdma.GetBuf(n)
		}
		dst := cw.lz[:n]
		if err := rdma.LZDecompress(dst, r.Data); err != nil {
			return nil, err
		}
		return dst, nil
	default:
		return r.Data, nil
	}
}

// serveWriteBatchC handles one WRITEBATCH-C / WRITEEPOCHBATCH-C frame
// on a worker goroutine: tuples apply in batch order — full objects
// through Write/WriteEpoch, range tuples spliced read-modify-write —
// and the whole batch is acknowledged with one ACKBATCH-C whose bitmap
// marks the epoch range tuples rejected for a stale base.
func (s *Server) serveWriteBatchC(j batchJob, connID int, send func(rdma.Frame) error, trace, epoch bool, cw *compactWriteScratch) {
	f := j.f
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	var startUS uint64
	if s.tracer != nil {
		startUS = s.tracer.Now()
	}
	s.metrics.wire.add(f.Op, f.WireSize())
	reqs, exts, err := rdma.DecodeWriteBatchCInto(f.Payload, cw.reqs[:0], cw.exts[:0], epoch)
	cw.reqs, cw.exts = reqs, exts
	if err != nil {
		s.metrics.errors.Inc()
		resp := rdma.ErrTagFrame(f.Tag, err.Error())
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return
	}
	words := (len(reqs) + 63) / 64
	if cap(cw.rej) < words {
		cw.rej = make([]uint64, words)
	}
	rej := cw.rej[:words]
	clear(rej)
	for i := range reqs {
		r := &reqs[i]
		raw, merr := cw.materialize(r)
		if merr != nil {
			// A tuple that passed CRC but fails decompression is corrupt
			// framing: reject the whole batch definitively. Earlier tuples
			// have applied — the client's write-back layer reissues full
			// objects on error, which is idempotent.
			s.metrics.errors.Inc()
			resp := rdma.ErrTagFrame(f.Tag, merr.Error())
			s.stamp(&resp, trace, j.recv, start)
			send(resp)
			return
		}
		if r.Extents == nil {
			if epoch {
				s.Store.WriteEpoch(r.DS, r.Idx, r.Epoch, raw)
			} else {
				s.Store.Write(r.DS, r.Idx, raw)
			}
			continue
		}
		s.metrics.wire.rangeWrites.Inc()
		if r.ObjSize > r.RawLen {
			s.metrics.wire.rangeSaved.Add(uint64(r.ObjSize - r.RawLen))
		}
		if epoch {
			if s.Store.WriteRangeEpoch(r.DS, r.Idx, r.Epoch, r.ObjSize, r.Extents, raw) {
				rej[i/64] |= 1 << (i % 64)
				s.metrics.wire.rangeRejects.Inc()
			}
		} else {
			s.Store.WriteRange(r.DS, r.Idx, r.ObjSize, r.Extents, raw)
		}
	}
	s.observeWriteBatch(f.Op, connID, len(reqs), start, startUS, reqTrace(f))
	resp := rdma.EncodeAckBatchC(f.Tag, len(reqs), rej)
	s.metrics.wire.add(resp.Op, resp.WireSize())
	s.stamp(&resp, trace, j.recv, start)
	send(resp)
	rdma.PutBuf(resp.Payload)
}

// RangeWriteStore is the asynchronous dirty-range write-back surface:
// src is the full object image (the base the extents index into, and
// what ships when a full write is no worse), exts the modified byte
// ranges, sorted and non-overlapping. src must stay valid until done
// runs; done must not block.
type RangeWriteStore interface {
	IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error))
}

// rangeWritable reports whether exts is a range set the wire tier can
// ship — bounded extent count, and at least one extent strictly
// smaller than the object (otherwise a full write is never worse).
func rangeWritable(src []byte, exts []rdma.Extent) bool {
	if len(exts) == 0 || len(exts) > rdma.MaxExtents {
		return false
	}
	total := uint32(0)
	for _, e := range exts {
		total += e.Len
	}
	return int(total) < len(src)
}

// IssueWriteRanges implements RangeWriteStore: the write rides the
// pipeline like IssueWrite, but only the extents' bytes ship (spliced
// server-side read-modify-write). exts must stay valid until done runs,
// like src.
func (c *PipelinedClient) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	if !rangeWritable(src, exts) {
		c.IssueWrite(ds, idx, src, done)
		return
	}
	c.enqueue(&pipeOp{
		write: true, ds: uint32(ds), idx: uint32(idx),
		data: src, exts: exts, done: done,
	})
}

// IssueWriteRangesEpoch is IssueWriteRanges with an epoch stamp: the
// peer applies the splice only onto the immediate-predecessor image
// (see ObjectStore.WriteRangeEpoch); a stale base completes done with
// ErrStaleRangeBase so the replication layer can mark the member
// divergent and schedule a full-object resync.
func (c *PipelinedClient) IssueWriteRangesEpoch(ds, idx int, epoch uint64, src []byte, exts []rdma.Extent, done func(error)) {
	if !rangeWritable(src, exts) {
		c.IssueWriteEpoch(ds, idx, epoch, src, done)
		return
	}
	c.enqueue(&pipeOp{
		write: true, wantEp: true, ds: uint32(ds), idx: uint32(idx),
		epoch: epoch, data: src, exts: exts, done: done,
	})
}

// IssueWriteRanges implements RangeWriteStore over the replaceable
// client.
func (r *Resilient) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	pc, err := r.client()
	if err != nil {
		done(err)
		return
	}
	pc.IssueWriteRanges(ds, idx, src, exts, r.retireOnErr(pc, done))
}

// IssueWriteRangesEpoch forwards the epoch-stamped range write over the
// replaceable client. ErrStaleRangeBase is an application-level NAK
// from a healthy session (the peer's base image missed an epoch), so it
// does not retire the client; transport failures do.
func (r *Resilient) IssueWriteRangesEpoch(ds, idx int, epoch uint64, src []byte, exts []rdma.Extent, done func(error)) {
	pc, err := r.client()
	if err != nil {
		done(err)
		return
	}
	pc.IssueWriteRangesEpoch(ds, idx, epoch, src, exts, func(err error) {
		if err != nil && !errors.Is(err, ErrStaleRangeBase) {
			r.retire(pc)
		}
		done(err)
	})
}

// compressInto applies the client-side compression decision to one
// outgoing object: all-zero detection first, then — when compress is
// set (the session negotiated FeatCompress) and the adaptive policy
// expects the DS to shrink — an LZ pass into a pooled buffer. It
// returns the scheme, the wire bytes (nil for SchemeZero; a pooled
// buffer the caller must PutBuf for SchemeLZ; src itself for
// SchemeRaw) and whether the returned slice is pooled. Called by the
// flusher with c.mu held — it must not touch the lock.
func (c *PipelinedClient) compressInto(ds uint32, src []byte, compress bool) (scheme uint8, wire []byte, pooled bool) {
	if rdma.IsAllZero(src) {
		return rdma.SchemeZero, nil, false
	}
	if !compress || !c.cpolicy.shouldCompress(ds) {
		return rdma.SchemeRaw, src, false
	}
	buf := rdma.GetBuf(rdma.CompressBound(len(src)))
	n, ok := rdma.LZCompress(buf, src)
	if !ok || n >= len(src) {
		rdma.PutBuf(buf)
		c.cpolicy.observe(ds, len(src), len(src))
		if m := c.metrics; m != nil && len(src) > 0 {
			m.wire.observeRatio(1000)
		}
		return rdma.SchemeRaw, src, false
	}
	c.cpolicy.observe(ds, len(src), n)
	if m := c.metrics; m != nil {
		m.wire.observeRatio(uint64(n) * 1000 / uint64(len(src)))
	}
	return rdma.SchemeLZ, buf[:n], true
}

// compactWriteReq builds one compact write tuple from a queued op:
// range ops first gather their extents' bytes out of the full image,
// then the compression decision runs on whatever ships. Pooled buffers
// are appended to *bufs; the caller releases them once the batch is
// encoded (the encoder copies every blob into the frame payload).
// Called by the flusher with c.mu held.
func (c *PipelinedClient) compactWriteReq(op *pipeOp, compress bool, bufs *[][]byte) rdma.WriteReqC {
	r := rdma.WriteReqC{DS: op.ds, Idx: op.idx, Epoch: op.epoch}
	src := op.data
	if op.exts != nil {
		r.ObjSize = uint32(len(op.data))
		r.Extents = op.exts
		raw := 0
		for _, e := range op.exts {
			raw += int(e.Len)
		}
		g := rdma.GetBuf(raw)
		*bufs = append(*bufs, g)
		off := 0
		for _, e := range op.exts {
			off += copy(g[off:off+int(e.Len)], op.data[e.Off:e.Off+e.Len])
		}
		src = g[:raw]
	}
	scheme, wire, pooled := c.compressInto(op.ds, src, compress)
	if pooled {
		*bufs = append(*bufs, wire)
	}
	r.Scheme = scheme
	r.RawLen = uint32(len(src))
	r.Data = wire
	return r
}
