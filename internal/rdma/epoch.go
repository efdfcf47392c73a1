package rdma

import (
	"encoding/binary"
	"fmt"
)

// Epoch-stamped read verbs. The replication layer versions every object
// with a monotonically increasing u64 epoch so a backup can tell a stale
// image from a current one without comparing bytes. Epoch-stamped
// writes ride the compact tier (WRITEEPOCHBATCH-C, compact.go); the read
// side keeps fixed-width frames:
//
//	READEPOCHBATCH:  u32 count | count x (u32 ds | u32 idx | u32 size)
//	                 -> DATAEPOCHBATCH (same tag)
//	DATAEPOCHBATCH:  u32 count | count x (u64 epoch | u32 len | bytes)

// EpochSeg is one segment of a DATAEPOCHBATCH reply: the stored epoch
// and the object bytes. A missing object decodes as Epoch 0 with empty
// Data.
type EpochSeg struct {
	Epoch uint64
	Data  []byte
}

// epochSegHdrSize is the fixed prefix of one DATAEPOCHBATCH segment:
// u64 epoch | u32 len.
const epochSegHdrSize = 12

// readReqSize is the wire size of one fixed-width (ds, idx, size) read
// tuple.
const readReqSize = 12

// EncodeReadEpochBatch builds a READEPOCHBATCH frame for the given
// tuples.
func EncodeReadEpochBatch(tag uint32, reqs []ReadReq) Frame {
	p := make([]byte, 4+readReqSize*len(reqs))
	encodeReadTuples(p, reqs)
	return Frame{Op: OpReadEpochBatch, Tag: tag, Payload: p}
}

// EncodeReadEpochBatchPooled is EncodeReadEpochBatch with the payload
// drawn from the pool; the caller should PutBuf it after the frame is
// written.
func EncodeReadEpochBatchPooled(tag uint32, reqs []ReadReq) Frame {
	p := GetBuf(4 + readReqSize*len(reqs))
	encodeReadTuples(p, reqs)
	return Frame{Op: OpReadEpochBatch, Tag: tag, Payload: p}
}

func encodeReadTuples(p []byte, reqs []ReadReq) {
	binary.LittleEndian.PutUint32(p[0:], uint32(len(reqs)))
	for i, r := range reqs {
		off := 4 + i*readReqSize
		binary.LittleEndian.PutUint32(p[off:], r.DS)
		binary.LittleEndian.PutUint32(p[off+4:], r.Idx)
		binary.LittleEndian.PutUint32(p[off+8:], r.Size)
	}
}

// DecodeReadEpochBatch parses a READEPOCHBATCH payload.
func DecodeReadEpochBatch(p []byte) ([]ReadReq, error) { return DecodeReadEpochBatchInto(p, nil) }

// DecodeReadEpochBatchInto is DecodeReadEpochBatch appending into a
// caller-owned slice, letting a steady-state server reuse one across
// batches.
func DecodeReadEpochBatchInto(p []byte, reqs []ReadReq) ([]ReadReq, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rdma: bad READEPOCHBATCH payload length %d", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	if uint64(len(p)) != 4+uint64(count)*readReqSize {
		return nil, fmt.Errorf("rdma: READEPOCHBATCH length mismatch: header %d tuples, payload %d bytes",
			count, len(p))
	}
	reqs = reqs[:0]
	for i := 0; i < int(count); i++ {
		off := 4 + i*readReqSize
		reqs = append(reqs, ReadReq{
			DS:   binary.LittleEndian.Uint32(p[off:]),
			Idx:  binary.LittleEndian.Uint32(p[off+4:]),
			Size: binary.LittleEndian.Uint32(p[off+8:]),
		})
	}
	return reqs, nil
}

// DataEpochBatchSize returns the DATAEPOCHBATCH payload size replying
// to reqs — the value both sides bound against MaxFrame before
// building a batch.
func DataEpochBatchSize(reqs []ReadReq) int {
	n := 4
	for _, r := range reqs {
		n += epochSegHdrSize + int(r.Size)
	}
	return n
}

// EncodeDataEpochBatch builds the epoch-stamped scatter-gather reply.
// Segments must be in request order.
func EncodeDataEpochBatch(tag uint32, segs []EpochSeg) (Frame, error) {
	n := 4
	for _, s := range segs {
		n += epochSegHdrSize + len(s.Data)
	}
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: DATAEPOCHBATCH too large (%d bytes)", n)
	}
	p := make([]byte, n)
	w := BeginDataEpochBatch(p, len(segs))
	for _, s := range segs {
		copy(w.Next(s.Epoch, len(s.Data)), s.Data)
	}
	return w.Frame(tag), nil
}

// DecodeDataEpochBatch parses a DATAEPOCHBATCH payload into segments
// (Data fields are subslices of p — valid while p is).
func DecodeDataEpochBatch(p []byte) ([]EpochSeg, error) {
	return DecodeDataEpochBatchInto(p, nil)
}

// DecodeDataEpochBatchInto is DecodeDataEpochBatch appending into a
// caller-owned slice.
func DecodeDataEpochBatchInto(p []byte, segs []EpochSeg) ([]EpochSeg, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rdma: bad DATAEPOCHBATCH payload length %d", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	if uint64(count) > uint64(len(p)-4)/epochSegHdrSize {
		return nil, fmt.Errorf("rdma: DATAEPOCHBATCH count %d exceeds payload", count)
	}
	segs = segs[:0]
	off := 4
	for i := uint32(0); i < count; i++ {
		if off+epochSegHdrSize > len(p) {
			return nil, fmt.Errorf("rdma: truncated DATAEPOCHBATCH at segment %d", i)
		}
		epoch := binary.LittleEndian.Uint64(p[off:])
		n := int(binary.LittleEndian.Uint32(p[off+8:]))
		off += epochSegHdrSize
		if n < 0 || off+n > len(p) {
			return nil, fmt.Errorf("rdma: truncated DATAEPOCHBATCH segment %d (%d bytes)", i, n)
		}
		segs = append(segs, EpochSeg{Epoch: epoch, Data: p[off : off+n]})
		off += n
	}
	if off != len(p) {
		return nil, fmt.Errorf("rdma: DATAEPOCHBATCH trailing garbage (%d bytes)", len(p)-off)
	}
	return segs, nil
}

// DataEpochBatchWriter assembles a DATAEPOCHBATCH payload in place,
// letting the server gather each object read directly into the
// (typically pooled) reply buffer.
type DataEpochBatchWriter struct {
	p   []byte
	off int
	hdr int // offset of the most recently reserved segment's epoch stamp
}

// BeginDataEpochBatch starts a batch of count segments over p, which
// must hold exactly DataEpochBatchSize of the requests being answered.
func BeginDataEpochBatch(p []byte, count int) DataEpochBatchWriter {
	binary.LittleEndian.PutUint32(p[0:], uint32(count))
	return DataEpochBatchWriter{p: p, off: 4}
}

// Next reserves the next segment's n-byte slot under the given epoch
// stamp and returns it for the caller to fill.
func (w *DataEpochBatchWriter) Next(epoch uint64, n int) []byte {
	binary.LittleEndian.PutUint64(w.p[w.off:], epoch)
	binary.LittleEndian.PutUint32(w.p[w.off+8:], uint32(n))
	w.off += epochSegHdrSize
	s := w.p[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}

// NextDeferred reserves the next segment's n-byte slot with the epoch
// left to be stamped afterwards via StampEpoch — the server's gather
// path learns the stamp only while copying under the store lock.
func (w *DataEpochBatchWriter) NextDeferred(n int) []byte {
	w.hdr = w.off
	binary.LittleEndian.PutUint32(w.p[w.off+8:], uint32(n))
	w.off += epochSegHdrSize
	s := w.p[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}

// StampEpoch stamps the epoch of the segment most recently reserved by
// NextDeferred.
func (w *DataEpochBatchWriter) StampEpoch(epoch uint64) {
	binary.LittleEndian.PutUint64(w.p[w.hdr:], epoch)
}

// Frame returns the assembled DATAEPOCHBATCH frame.
func (w *DataEpochBatchWriter) Frame(tag uint32) Frame {
	return Frame{Op: OpDataEpochBatch, Tag: tag, Payload: w.p[:w.off]}
}
