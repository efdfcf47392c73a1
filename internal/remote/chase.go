package remote

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
)

// Traversal offload. A CHASEBATCH ships one or
// more compact traversal programs to the server, which walks each chain
// in its local store and answers with the whole path in one CHASEDATA —
// collapsing K dependent round trips into one. Chases are read-only and
// ride the ordinary read window: same doorbell coalescing, same tag
// demux, and the same idempotent replay on reconnect as plain reads.

// Wire overhead the flusher charges per chase program when bounding a
// batch against rdma.MaxFrame: the reply's fixed result header
// (u32 status | u64 final | u32 hopCount) and each hop's header
// (u32 idx | u32 len).
const (
	chaseRespHdrSize = 16
	chaseHopHdrSize  = 8
)

// chaseReplySize is the worst-case reply segment of one program: the
// full hop budget spent.
func chaseReplySize(r rdma.ChaseReq) int {
	return chaseRespHdrSize + int(r.Hops)*(chaseHopHdrSize+int(r.ObjSize))
}

// chaseIssuable validates a program client-side before it is enqueued,
// so a malformed or unboundable program fails immediately instead of as
// a server ERRTAG mid-pipeline.
func chaseIssuable(req rdma.ChaseReq) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if uint64(4)+uint64(chaseReplySize(req)) > rdma.MaxFrame {
		return fmt.Errorf("remote: chase reply bound exceeds frame limit (%d hops of %d bytes)",
			req.Hops, req.ObjSize)
	}
	return nil
}

// ChaseStore is the synchronous traversal-offload client surface the
// farmem runtime builds on.
type ChaseStore interface {
	// Chase runs one traversal program remotely and returns the visited
	// path. Hop data is caller-owned (copied out of the reply frame).
	Chase(req rdma.ChaseReq) (rdma.ChaseResult, error)
}

// AsyncChaseStore is the pipelined traversal-offload surface: issue
// without blocking, complete exactly once via the callback. The result
// passed to done is caller-owned.
type AsyncChaseStore interface {
	IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error))
}

// ChaseCapable implements farmem.AsyncChaseStore: every session speaks
// the chase verbs, so offload is available while the client is alive.
func (c *PipelinedClient) ChaseCapable() bool { return c.Alive() }

// IssueChase implements AsyncChaseStore: the program is enqueued like a
// read and done is invoked exactly once (possibly on the reader
// goroutine) with the decoded, caller-owned path. done must not block.
func (c *PipelinedClient) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	if err := chaseIssuable(req); err != nil {
		done(rdma.ChaseResult{}, err)
		return
	}
	c.enqueue(&pipeOp{
		chase: true, ds: req.DS, idx: req.Start, creq: req, cdone: done,
	})
}

// Chase implements ChaseStore (issue + wait).
func (c *PipelinedClient) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	if err := chaseIssuable(req); err != nil {
		return rdma.ChaseResult{}, err
	}
	op := &pipeOp{
		chase: true, ds: req.DS, idx: req.Start, creq: req,
		ch: make(chan error, 1),
	}
	c.enqueue(op)
	err := <-op.ch
	return op.cres, err
}

// ChaseCapable reports whether offload is available: a live client can
// be had (dialing a replacement if the previous one was retired).
func (r *Resilient) ChaseCapable() bool {
	pc, err := r.client()
	return err == nil && pc.Alive()
}

// Chase implements ChaseStore over the replaceable client.
func (r *Resilient) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	pc, err := r.client()
	if err != nil {
		return rdma.ChaseResult{}, err
	}
	res, err := pc.Chase(req)
	if err != nil {
		r.retire(pc)
	}
	return res, err
}

// IssueChase implements AsyncChaseStore over the replaceable client.
func (r *Resilient) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	pc, err := r.client()
	if err != nil {
		done(rdma.ChaseResult{}, err)
		return
	}
	pc.IssueChase(req, func(res rdma.ChaseResult, err error) {
		if err != nil {
			r.retire(pc)
		}
		done(res, err)
	})
}

// copyChaseResult deep-copies a decoded result out of a pooled reply
// frame — one backing array holds every hop's bytes — so the completed
// op owns its path after the frame returns to the buffer pool.
func copyChaseResult(res rdma.ChaseResult) rdma.ChaseResult {
	out := rdma.ChaseResult{Status: res.Status, Final: res.Final}
	if len(res.Hops) == 0 {
		return out
	}
	total := 0
	for _, h := range res.Hops {
		total += len(h.Data)
	}
	buf := make([]byte, total)
	out.Hops = make([]rdma.ChaseHop, len(res.Hops))
	off := 0
	for i, h := range res.Hops {
		n := copy(buf[off:], h.Data)
		out.Hops[i] = rdma.ChaseHop{Idx: h.Idx, Data: buf[off : off+n : off+n]}
		off += n
	}
	return out
}

// serveChaseBatch handles one CHASEBATCH frame on a worker goroutine:
// validate every program, then walk each chain directly into one pooled
// CHASEDATA reply. The request scratch slice is returned for the worker
// to reuse. Malformed programs are rejected with a definitive ERRTAG —
// in particular a zero hop budget or an out-of-object next-pointer
// offset never reaches the walk, and the walk itself is bounded by the
// hop budget so an unterminated (cyclic) chain cannot loop the server.
func (s *Server) serveChaseBatch(j batchJob, connID int, send func(rdma.Frame) error, trace bool, scratch []rdma.ChaseReq) []rdma.ChaseReq {
	f := j.f
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	var startUS uint64
	if s.tracer != nil {
		startUS = s.tracer.Now()
	}
	reqs, err := rdma.DecodeChaseBatchInto(f.Payload, scratch)
	if err != nil {
		s.metrics.errors.Inc()
		resp := rdma.ErrTagFrame(f.Tag, err.Error())
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return scratch
	}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			s.metrics.errors.Inc()
			resp := rdma.ErrTagFrame(f.Tag, err.Error())
			s.stamp(&resp, trace, j.recv, start)
			send(resp)
			return reqs
		}
	}
	bound := rdma.ChaseReplyBound(reqs)
	if bound > rdma.MaxFrame {
		s.metrics.errors.Inc()
		resp := rdma.ErrTagFrame(f.Tag, "chase reply exceeds frame limit")
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return reqs
	}
	p := rdma.GetBuf(int(bound))
	w := rdma.BeginChaseData(p, len(reqs))
	hops := 0
	for _, r := range reqs {
		hops += s.chaseOne(&w, r)
	}
	s.observeChaseBatch(connID, len(reqs), hops, start, startUS, reqTrace(f))
	resp := w.Frame(f.Tag)
	s.stamp(&resp, trace, j.recv, start)
	send(resp)
	rdma.PutBuf(p)
	return reqs
}

// chaseOne walks one validated program against the local store, gathers
// each visited object into the reply in place, and returns the hop
// count. The successor word is read before the field mask clears
// anything, so a filtered next-pointer field still steers the walk.
func (s *Server) chaseOne(w *rdma.ChaseDataWriter, r rdma.ChaseReq) int {
	w.BeginResult()
	shift := uint(bits.TrailingZeros32(r.ObjSize)) // ObjSize validated power of two
	idx := r.Start
	for hop := uint32(0); ; hop++ {
		slot := w.NextHop(idx, int(r.ObjSize))
		s.Store.ReadInto(r.DS, idx, slot)
		word := binary.LittleEndian.Uint64(slot[r.NextOff:])
		if r.Mask != 0 {
			applyChaseMask(slot, r.Mask)
		}
		if !rdma.ChaseAddrTagged(word) || rdma.ChaseAddrDS(word) != r.DS {
			// Terminal: an unmanaged word, or a pointer out of the
			// program's data structure. The raw word goes back so the
			// client sees exactly what a per-hop read would have.
			w.FinishResult(rdma.ChaseDone, word)
			return int(hop) + 1
		}
		if hop+1 == r.Hops {
			// Budget spent with the chain still live: hand back the tagged
			// address of the first unvisited node for the client to resume
			// from.
			w.FinishResult(rdma.ChaseHops, word)
			return int(r.Hops)
		}
		idx = uint32(rdma.ChaseAddrOff(word) >> shift)
	}
}

// applyChaseMask zeroes every 8-byte word of slot whose mask bit is
// clear. The slot keeps its full size (offsets stay stable); only the
// filtered bytes go dark.
func applyChaseMask(slot []byte, mask uint64) {
	for w := 0; w*8+8 <= len(slot); w++ {
		if mask&(1<<uint(w)) == 0 {
			for i := w * 8; i < w*8+8; i++ {
				slot[i] = 0
			}
		}
	}
}

// observeChaseBatch records one served CHASEBATCH: the batch counters,
// the hops walked on the client's behalf, and one trace span carrying
// the program count, hop total, and the distributed trace ID (0 when
// the batch carried none).
func (s *Server) observeChaseBatch(connID, n, hops int, start time.Time, startUS uint64, trace uint64) {
	ns := uint64(time.Since(start).Nanoseconds())
	s.metrics.chaseBatches.Inc()
	s.metrics.chases.Add(uint64(n))
	s.metrics.chaseHops.Add(uint64(hops))
	s.metrics.chaseNS.Observe(ns)
	if s.tracer != nil {
		s.tracer.Emit(obs.TraceEvent{
			TS:       startUS,
			Dur:      ns / 1000,
			Cat:      "remote",
			Name:     rdma.OpChaseBatch.String(),
			TID:      connID,
			Trace:    trace,
			Arg1Name: "chases", Arg1: int64(n),
			Arg2Name: "hops", Arg2: int64(hops),
		})
	}
}
