package rdma

import (
	"encoding/binary"
	"fmt"
)

// Traversal-offload verbs. A K-hop pointer
// chase is the one access pattern the pipelined window cannot help:
// each hop's address comes out of the previous reply, so K hops cost K
// dependent round trips. CHASEBATCH ships a compact traversal program —
// the next-pointer field offset, a hop budget, and an optional
// field-filter mask — to the server, which walks its local store and
// returns the whole path in one CHASEDATA reply:
//
//	CHASEBATCH: u32 count | count x (u32 ds | u32 start | u32 objSize |
//	            u32 nextOff | u32 hops | u64 mask)
//	CHASEDATA:  u32 count | count x (u32 status | u64 final | u32 hopCount |
//	            hopCount x (u32 idx | u32 len | bytes))    (request order)
//
// The program's object space is the same (ds, idx) store the batch read
// verbs address; successor pointers are read as the little-endian u64
// at nextOff of each visited object and interpreted under the runtime's
// tagged-address layout (bit 63 = managed, bits 48..62 = ds handle,
// bits 0..47 = byte offset — see ChaseAddrTagged and friends). The walk
// stops at the first word that is untagged or leaves the program's data
// structure (status ChaseDone, final = the raw word), or when the hop
// budget is spent (status ChaseHops, final = the tagged address of the
// first unvisited node). The budget both sizes the reply and bounds the
// walk, so a cyclic chain can never loop the server: it is cut off
// after exactly hops nodes like any other deep chain.

// Chase result statuses.
const (
	// ChaseDone: the walk reached a terminal word — untagged, or tagged
	// into a different data structure. Final holds that raw word.
	ChaseDone uint32 = 0
	// ChaseHops: the hop budget was exhausted first. Final holds the
	// tagged address of the first unvisited node, so the client can
	// resume the chase (or fall back to per-hop reads) from there.
	ChaseHops uint32 = 1
)

// ChaseReq is one traversal program: walk DS from object index Start,
// reading the next hop's address from the u64 at NextOff of each
// ObjSize-byte object, for at most Hops objects. Mask, when non-zero,
// is a field filter: bit i keeps 8-byte word i of each returned object
// and cleared words come back zeroed (the wire carries full-size hops
// either way, so offsets stay stable).
type ChaseReq struct {
	DS      uint32
	Start   uint32
	ObjSize uint32
	NextOff uint32
	Hops    uint32
	Mask    uint64
}

// ChaseHop is one visited object of a chase path.
type ChaseHop struct {
	Idx  uint32
	Data []byte
}

// ChaseResult is one program's decoded reply: the visited path in walk
// order, the terminal status, and the final word (see ChaseDone /
// ChaseHops for its meaning).
type ChaseResult struct {
	Status uint32
	Final  uint64
	Hops   []ChaseHop
}

// Wire sizes of the chase encoding.
const (
	// chaseReqSize is one CHASEBATCH tuple:
	// u32 ds | u32 start | u32 objSize | u32 nextOff | u32 hops | u64 mask.
	chaseReqSize = 28
	// chaseResHdrSize is the fixed prefix of one CHASEDATA result:
	// u32 status | u64 final | u32 hopCount.
	chaseResHdrSize = 16
	// chaseHopHdrSize is the fixed prefix of one hop: u32 idx | u32 len.
	chaseHopHdrSize = 8
)

// chaseMaskWords is the object span a field-filter mask can describe:
// one bit per 8-byte word, 64 words = 512 bytes.
const chaseMaskWords = 64

// Tagged-address layout of chase successor pointers. These mirror the
// farmem address constants (Figure 3 of the paper): the wire protocol
// fixes the layout so the server can decode next-pointers without
// importing the runtime.
const (
	chaseAddrTagBit  = uint64(1) << 63
	chaseAddrDSShift = 48
	chaseAddrDSMask  = (uint64(1) << 15) - 1
	chaseAddrOffMask = (uint64(1) << chaseAddrDSShift) - 1
)

// ChaseAddrTagged reports whether a successor word is a managed
// (chaseable) address.
func ChaseAddrTagged(a uint64) bool { return a&chaseAddrTagBit != 0 }

// ChaseAddrDS extracts the data structure handle of a tagged address.
func ChaseAddrDS(a uint64) uint32 { return uint32((a >> chaseAddrDSShift) & chaseAddrDSMask) }

// ChaseAddrOff extracts the intra-DS byte offset of a tagged address.
func ChaseAddrOff(a uint64) uint64 { return a & chaseAddrOffMask }

// Validate checks the program invariants both sides enforce: a server
// must reject (ERRTAG) any program that could read outside an object,
// walk zero-budget, or build an unbounded reply. Validation is
// per-program and cheap; the batch-level reply bound against MaxFrame
// is checked separately via ChaseReplyBound.
func (r ChaseReq) Validate() error {
	if r.Hops == 0 {
		return fmt.Errorf("rdma: chase program with hop budget 0")
	}
	if r.ObjSize == 0 {
		return fmt.Errorf("rdma: chase program with object size 0")
	}
	if r.ObjSize&(r.ObjSize-1) != 0 {
		return fmt.Errorf("rdma: chase object size %d not a power of two", r.ObjSize)
	}
	if uint64(r.NextOff)+8 > uint64(r.ObjSize) {
		return fmt.Errorf("rdma: chase next-pointer offset %d past object end (%d bytes)",
			r.NextOff, r.ObjSize)
	}
	if r.Mask != 0 && r.ObjSize > chaseMaskWords*8 {
		return fmt.Errorf("rdma: chase field mask on %d-byte objects (mask covers %d)",
			r.ObjSize, chaseMaskWords*8)
	}
	return nil
}

// ChaseBatchSize returns the CHASEBATCH payload size for reqs.
func ChaseBatchSize(reqs []ChaseReq) int {
	return 4 + chaseReqSize*len(reqs)
}

// ChaseReplyBound returns the worst-case CHASEDATA payload size for
// reqs — every program spending its full hop budget. Both sides bound
// this against MaxFrame before issuing or serving a batch; the math is
// u64 so a forged hop budget cannot overflow the check.
func ChaseReplyBound(reqs []ChaseReq) uint64 {
	n := uint64(4)
	for _, r := range reqs {
		n += chaseResHdrSize + uint64(r.Hops)*(chaseHopHdrSize+uint64(r.ObjSize))
	}
	return n
}

// EncodeChaseBatch builds a CHASEBATCH frame.
func EncodeChaseBatch(tag uint32, reqs []ChaseReq) Frame {
	p := make([]byte, ChaseBatchSize(reqs))
	encodeChaseBatchInto(p, reqs)
	return Frame{Op: OpChaseBatch, Tag: tag, Payload: p}
}

// EncodeChaseBatchPooled is EncodeChaseBatch with a pooled payload; the
// caller should PutBuf it after the frame is written.
func EncodeChaseBatchPooled(tag uint32, reqs []ChaseReq) Frame {
	p := GetBuf(ChaseBatchSize(reqs))
	encodeChaseBatchInto(p, reqs)
	return Frame{Op: OpChaseBatch, Tag: tag, Payload: p}
}

func encodeChaseBatchInto(p []byte, reqs []ChaseReq) {
	binary.LittleEndian.PutUint32(p[0:], uint32(len(reqs)))
	off := 4
	for _, r := range reqs {
		binary.LittleEndian.PutUint32(p[off:], r.DS)
		binary.LittleEndian.PutUint32(p[off+4:], r.Start)
		binary.LittleEndian.PutUint32(p[off+8:], r.ObjSize)
		binary.LittleEndian.PutUint32(p[off+12:], r.NextOff)
		binary.LittleEndian.PutUint32(p[off+16:], r.Hops)
		binary.LittleEndian.PutUint64(p[off+20:], r.Mask)
		off += chaseReqSize
	}
}

// DecodeChaseBatch parses a CHASEBATCH payload.
func DecodeChaseBatch(p []byte) ([]ChaseReq, error) {
	return DecodeChaseBatchInto(p, nil)
}

// DecodeChaseBatchInto is DecodeChaseBatch appending into a
// caller-owned slice, letting a steady-state server reuse one across
// batches. It checks framing only; program invariants are the server's
// per-program Validate call (so one bad program fails its batch with a
// precise message, not a generic decode error).
func DecodeChaseBatchInto(p []byte, reqs []ChaseReq) ([]ChaseReq, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rdma: bad CHASEBATCH payload length %d", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	if uint64(len(p)) != 4+uint64(count)*chaseReqSize {
		return nil, fmt.Errorf("rdma: CHASEBATCH length mismatch: header %d tuples, payload %d bytes",
			count, len(p))
	}
	reqs = reqs[:0]
	off := 4
	for i := uint32(0); i < count; i++ {
		reqs = append(reqs, ChaseReq{
			DS:      binary.LittleEndian.Uint32(p[off:]),
			Start:   binary.LittleEndian.Uint32(p[off+4:]),
			ObjSize: binary.LittleEndian.Uint32(p[off+8:]),
			NextOff: binary.LittleEndian.Uint32(p[off+12:]),
			Hops:    binary.LittleEndian.Uint32(p[off+16:]),
			Mask:    binary.LittleEndian.Uint64(p[off+20:]),
		})
		off += chaseReqSize
	}
	return reqs, nil
}

// ChaseDataWriter assembles a CHASEDATA payload in place, letting the
// server gather each visited object directly into the (typically
// pooled) reply buffer. A result's status, final word, and hop count
// are discovered only as the walk runs, so the writer reserves each
// result header up front and backpatches it when the result finishes.
type ChaseDataWriter struct {
	p    []byte
	off  int
	hdr  int // offset of the current result's reserved header
	hops int // hops written into the current result so far
}

// BeginChaseData starts a batch of count results over p, which must
// hold at least ChaseReplyBound of the programs being answered.
func BeginChaseData(p []byte, count int) ChaseDataWriter {
	binary.LittleEndian.PutUint32(p[0:], uint32(count))
	return ChaseDataWriter{p: p, off: 4}
}

// BeginResult reserves the next result's header; the walk then appends
// hops via NextHop and closes the result with FinishResult.
func (w *ChaseDataWriter) BeginResult() {
	w.hdr = w.off
	w.off += chaseResHdrSize
	w.hops = 0
}

// NextHop reserves the current result's next n-byte hop slot under idx
// and returns it for the caller to fill.
func (w *ChaseDataWriter) NextHop(idx uint32, n int) []byte {
	binary.LittleEndian.PutUint32(w.p[w.off:], idx)
	binary.LittleEndian.PutUint32(w.p[w.off+4:], uint32(n))
	w.off += chaseHopHdrSize
	s := w.p[w.off : w.off+n : w.off+n]
	w.off += n
	w.hops++
	return s
}

// FinishResult backpatches the current result's header with the walk's
// outcome.
func (w *ChaseDataWriter) FinishResult(status uint32, final uint64) {
	binary.LittleEndian.PutUint32(w.p[w.hdr:], status)
	binary.LittleEndian.PutUint64(w.p[w.hdr+4:], final)
	binary.LittleEndian.PutUint32(w.p[w.hdr+12:], uint32(w.hops))
}

// Frame returns the assembled CHASEDATA frame.
func (w *ChaseDataWriter) Frame(tag uint32) Frame {
	return Frame{Op: OpChaseData, Tag: tag, Payload: w.p[:w.off]}
}

// EncodeChaseData builds a CHASEDATA frame from decoded results (the
// test/fuzz path; the server gathers in place via ChaseDataWriter).
func EncodeChaseData(tag uint32, results []ChaseResult) (Frame, error) {
	n := 4
	for _, r := range results {
		n += chaseResHdrSize
		for _, h := range r.Hops {
			n += chaseHopHdrSize + len(h.Data)
		}
	}
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: CHASEDATA too large (%d bytes)", n)
	}
	p := make([]byte, n)
	w := BeginChaseData(p, len(results))
	for _, r := range results {
		w.BeginResult()
		for _, h := range r.Hops {
			copy(w.NextHop(h.Idx, len(h.Data)), h.Data)
		}
		w.FinishResult(r.Status, r.Final)
	}
	return w.Frame(tag), nil
}

// DecodeChaseData parses a CHASEDATA payload.
func DecodeChaseData(p []byte) ([]ChaseResult, error) {
	return DecodeChaseDataInto(p, nil)
}

// DecodeChaseDataInto is DecodeChaseData appending into a caller-owned
// slice, reusing both the result slice and each result's hop slice so
// a steady-state client decodes without touching the heap. Hop Data
// fields are subslices of p — valid while p is.
func DecodeChaseDataInto(p []byte, res []ChaseResult) ([]ChaseResult, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rdma: bad CHASEDATA payload length %d", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	// Each result needs at least its fixed header; a count beyond that is
	// a forged header — reject before sizing any allocation by it.
	if uint64(count) > uint64(len(p)-4)/chaseResHdrSize {
		return nil, fmt.Errorf("rdma: CHASEDATA count %d exceeds payload", count)
	}
	res = res[:0]
	off := 4
	for i := uint32(0); i < count; i++ {
		if off+chaseResHdrSize > len(p) {
			return nil, fmt.Errorf("rdma: truncated CHASEDATA at result %d", i)
		}
		status := binary.LittleEndian.Uint32(p[off:])
		final := binary.LittleEndian.Uint64(p[off+4:])
		hopCount := binary.LittleEndian.Uint32(p[off+12:])
		off += chaseResHdrSize
		if uint64(hopCount) > uint64(len(p)-off)/chaseHopHdrSize {
			return nil, fmt.Errorf("rdma: CHASEDATA result %d hop count %d exceeds payload", i, hopCount)
		}
		// Reuse the previous decode's hop slice at this position when the
		// backing array is still around (res came in with capacity).
		var r *ChaseResult
		if n := len(res); n < cap(res) {
			res = res[:n+1]
			r = &res[n]
		} else {
			res = append(res, ChaseResult{})
			r = &res[len(res)-1]
		}
		r.Status, r.Final = status, final
		r.Hops = r.Hops[:0]
		for h := uint32(0); h < hopCount; h++ {
			if off+chaseHopHdrSize > len(p) {
				return nil, fmt.Errorf("rdma: truncated CHASEDATA result %d at hop %d", i, h)
			}
			idx := binary.LittleEndian.Uint32(p[off:])
			n := int(binary.LittleEndian.Uint32(p[off+4:]))
			off += chaseHopHdrSize
			if n < 0 || off+n > len(p) {
				return nil, fmt.Errorf("rdma: truncated CHASEDATA result %d hop %d (%d bytes)", i, h, n)
			}
			r.Hops = append(r.Hops, ChaseHop{Idx: idx, Data: p[off : off+n]})
			off += n
		}
	}
	if off != len(p) {
		return nil, fmt.Errorf("rdma: CHASEDATA trailing garbage (%d bytes)", len(p)-off)
	}
	return res, nil
}
