package remote

import (
	"time"

	"cards/internal/rdma"
)

// Epoch-stamped operations. The replication layer versions whole-object
// images with a monotonically increasing epoch so a replica can tell
// stale state from current without byte comparison. The ops ride the
// ordinary pipelined windows — same doorbell coalescing, same tag
// demux, same ErrUncertainWrite fault accounting — in their own frames:
// reads as READEPOCHBATCH, writes as WRITEEPOCHBATCH-C.

// epochRespHdrSize is the reply segment header of an epoch read
// (u64 epoch | u32 len), which the flusher charges per op when bounding
// a batch against rdma.MaxFrame.
const epochRespHdrSize = 12

// EpochStore is the synchronous epoch-stamped client surface the
// replica layer builds on.
type EpochStore interface {
	// ReadObjEpoch fills dst and returns the object's stored epoch
	// stamp (0 when absent or never epoch-stamped).
	ReadObjEpoch(ds, idx int, dst []byte) (uint64, error)
	// WriteObjEpoch stores src stamped with epoch. The server applies
	// it only when epoch is at least the stored stamp, and acknowledges
	// either way — a positive ack means "the object is at >= epoch",
	// which is exactly the idempotent contract replayed write-backs
	// need.
	WriteObjEpoch(ds, idx int, epoch uint64, src []byte) error
}

// AsyncEpochStore is the pipelined epoch-stamped surface: issue
// without blocking, complete exactly once via the callback. src must
// stay valid until done runs (the IssueWrite contract).
type AsyncEpochStore interface {
	IssueReadEpoch(ds, idx int, dst []byte, done func(epoch uint64, err error))
	IssueWriteEpoch(ds, idx int, epoch uint64, src []byte, done func(error))
}

// IssueReadEpoch is IssueRead returning the object's stored epoch
// stamp through done.
func (c *PipelinedClient) IssueReadEpoch(ds, idx int, dst []byte, done func(uint64, error)) {
	c.enqueue(&pipeOp{
		wantEp: true, ds: uint32(ds), idx: uint32(idx), size: uint32(len(dst)),
		dst: dst, edone: done,
	})
}

// IssueWriteEpoch is IssueWrite carrying an epoch stamp; see
// EpochStore.WriteObjEpoch for the conditional-apply contract.
func (c *PipelinedClient) IssueWriteEpoch(ds, idx int, epoch uint64, src []byte, done func(error)) {
	c.enqueue(&pipeOp{
		write: true, wantEp: true, ds: uint32(ds), idx: uint32(idx),
		epoch: epoch, data: src, done: done,
	})
}

// ReadObjEpoch implements EpochStore (issue + wait).
func (c *PipelinedClient) ReadObjEpoch(ds, idx int, dst []byte) (uint64, error) {
	op := &pipeOp{
		wantEp: true, ds: uint32(ds), idx: uint32(idx), size: uint32(len(dst)),
		dst: dst, ch: make(chan error, 1),
	}
	c.enqueue(op)
	err := <-op.ch
	return op.epoch, err
}

// WriteObjEpoch implements EpochStore (issue + wait).
func (c *PipelinedClient) WriteObjEpoch(ds, idx int, epoch uint64, src []byte) error {
	op := &pipeOp{
		write: true, wantEp: true, ds: uint32(ds), idx: uint32(idx),
		epoch: epoch, data: src, ch: make(chan error, 1),
	}
	c.enqueue(op)
	return <-op.ch
}

// ReadObjEpoch implements EpochStore over the replaceable client.
func (r *Resilient) ReadObjEpoch(ds, idx int, dst []byte) (uint64, error) {
	pc, err := r.client()
	if err != nil {
		return 0, err
	}
	epoch, err := pc.ReadObjEpoch(ds, idx, dst)
	if err != nil {
		r.retire(pc)
	}
	return epoch, err
}

// WriteObjEpoch implements EpochStore over the replaceable client.
func (r *Resilient) WriteObjEpoch(ds, idx int, epoch uint64, src []byte) error {
	return r.do(func(pc *PipelinedClient) error { return pc.WriteObjEpoch(ds, idx, epoch, src) })
}

// IssueReadEpoch implements AsyncEpochStore over the replaceable
// client.
func (r *Resilient) IssueReadEpoch(ds, idx int, dst []byte, done func(uint64, error)) {
	pc, err := r.client()
	if err != nil {
		done(0, err)
		return
	}
	pc.IssueReadEpoch(ds, idx, dst, func(epoch uint64, err error) {
		if err != nil {
			r.retire(pc)
		}
		done(epoch, err)
	})
}

// IssueWriteEpoch implements AsyncEpochStore over the replaceable
// client.
func (r *Resilient) IssueWriteEpoch(ds, idx int, epoch uint64, src []byte, done func(error)) {
	pc, err := r.client()
	if err != nil {
		done(err)
		return
	}
	pc.IssueWriteEpoch(ds, idx, epoch, src, r.retireOnErr(pc, done))
}

// serveReadEpochBatch handles one READEPOCHBATCH frame on a worker
// goroutine: gather every requested object and its stored epoch stamp
// directly into one pooled DATAEPOCHBATCH reply. The request scratch
// slice is returned for the worker to reuse.
func (s *Server) serveReadEpochBatch(j batchJob, connID int, send func(rdma.Frame) error, trace bool, scratch []rdma.ReadReq) []rdma.ReadReq {
	f := j.f
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	var startUS uint64
	if s.tracer != nil {
		startUS = s.tracer.Now()
	}
	reqs, err := rdma.DecodeReadEpochBatchInto(f.Payload, scratch)
	if err != nil {
		s.metrics.errors.Inc()
		resp := rdma.ErrTagFrame(f.Tag, err.Error())
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return scratch
	}
	size := rdma.DataEpochBatchSize(reqs)
	if size > rdma.MaxFrame {
		s.metrics.errors.Inc()
		resp := rdma.ErrTagFrame(f.Tag, "batch reply exceeds frame limit")
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return reqs
	}
	p := rdma.GetBuf(size)
	w := rdma.BeginDataEpochBatch(p, len(reqs))
	for _, r := range reqs {
		// The copy and the stamp come from one lock acquisition, so each
		// segment is a consistent (epoch, bytes) snapshot.
		slot := w.NextDeferred(int(r.Size))
		w.StampEpoch(s.Store.ReadEpochInto(r.DS, r.Idx, slot))
	}
	s.observeBatch(f.Op, connID, len(reqs), start, startUS, reqTrace(f))
	resp := w.Frame(f.Tag)
	s.stamp(&resp, trace, j.recv, start)
	send(resp)
	rdma.PutBuf(p)
	return reqs
}
