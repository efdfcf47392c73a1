package rdma

import "fmt"

// The compact wire tier: bit-packed batch headers, delta-encoded
// tuples, per-segment compression schemes, and the WRITERANGE
// sub-encoding for dirty-range write-back. Every plain read and every
// write of a session rides these frames; LZ segments appear only on
// sessions that negotiated FeatCompress.
//
// Compact frames keep the outer framing (u32 len | u8 op | u32 tag, CRC
// trailer and trace extension unchanged) and re-encode only the batch
// payloads. Tuple headers ride a bit stream (see bitio.go): repeated DS
// ids collapse to one bit, object indices are zigzag deltas off the
// previous tuple (a sequential scan costs 5 bits per index), and sizes
// repeat as one bit when unchanged. Object payloads follow the headers
// byte-aligned, each tagged with a two-bit scheme:
//
//	SchemeRaw  — verbatim bytes
//	SchemeLZ   — an LZ block (lz.go); decompressed length from the header
//	SchemeZero — all-zero object, no bytes at all
//
// Compact payloads (after the bit-stream header, A = byte alignment):
//
//	READBATCH-C:  count | tuples(ds?,Δidx,size?)                    | A
//	DATABATCH-C:  count | segs(scheme,rawLen[,compLen])             | A | blobs
//	WRITEBATCH-C: count | tuples(ds?,Δidx[,epoch],kind,
//	              [objSize,extents],scheme[,lens])                  | A | blobs
//	ACKBATCH-C:   count | count rejected bits                       | A
//
// A WRITEBATCH-C tuple is either a full object (kind 0) or a range
// write (kind 1): the object's size, then 1..MaxExtents sorted
// non-overlapping (offset,len) extents — offset delta-encoded from the
// previous extent's end, so adjacent dirty fields cost ~10 bits — whose
// concatenated bytes form the tuple's blob. The server applies ranges
// read-modify-write; every extent is validated against objSize at
// decode time, so a forged offset can never write outside the object.
// WRITEEPOCHBATCH-C adds a u64 epoch varint per tuple, and its
// ACKBATCH-C reply's bitmap marks tuples the server rejected because
// the range's base image was stale (see internal/remote: the client
// treats a set bit as a failed write and lets the replica layer mark
// the member divergent).

// Compact opcodes.
const (
	// OpReadBatchC is a batch read with a compact payload; answered by
	// OpDataBatchC.
	OpReadBatchC Op = TagBit | 0x0D
	// OpDataBatchC is the compact scatter-gather reply: per-segment
	// compression schemes ahead of the concatenated blobs.
	OpDataBatchC Op = TagBit | 0x0E
	// OpWriteBatchC is a batch write of compact tuples, each either a
	// full object or a dirty-range write. Acked by OpAckBatchC.
	OpWriteBatchC Op = TagBit | 0x0F
	// OpWriteEpochBatchC is OpWriteBatchC with a per-tuple epoch stamp
	// (the replication path). Acked by OpAckBatchC.
	OpWriteEpochBatchC Op = TagBit | 0x10
	// OpAckBatchC acknowledges a compact write batch; its payload
	// carries a per-tuple rejected bitmap (stale range bases only).
	OpAckBatchC Op = TagBit | 0x11
)

// Segment compression schemes (2 bits on the wire).
const (
	SchemeRaw  uint8 = 0
	SchemeLZ   uint8 = 1
	SchemeZero uint8 = 2
)

// Extent is one modified byte range of an object, used by range-write
// tuples. Extents in a tuple are sorted by Off and non-overlapping.
type Extent struct {
	Off, Len uint32
}

// MaxExtents bounds the extents of one range tuple; dirtier objects
// fall back to full-object writes before hitting it.
const MaxExtents = 512

// maxCompactCount rejects forged tuple counts before decoding: every
// compact tuple costs at least one bit, so a count beyond 8x the
// payload length cannot be satisfied.
func compactCountOK(count uint64, p []byte) bool {
	return count <= uint64(len(p))*8
}

// --- READBATCH-C ---

// readBatchCBound is the worst-case payload size for n read tuples
// (count varint + full-width ds/idx/size varints per tuple).
func readBatchCBound(n int) int { return 6 + 16*n }

// EncodeReadBatchCPooled builds a READBATCH-C frame with a pooled
// payload; the caller should PutBuf it after the frame is written.
func EncodeReadBatchCPooled(tag uint32, reqs []ReadReq) Frame {
	w := NewBitWriter(GetBuf(readBatchCBound(len(reqs))))
	w.Uvarint(uint64(len(reqs)))
	var prev ReadReq
	for i, r := range reqs {
		if i == 0 {
			w.Uvarint(uint64(r.DS))
			w.Uvarint(uint64(r.Idx))
			w.Uvarint(uint64(r.Size))
		} else {
			if r.DS == prev.DS {
				w.WriteBit(true)
			} else {
				w.WriteBit(false)
				w.Uvarint(uint64(r.DS))
			}
			w.Svarint(int64(r.Idx) - int64(prev.Idx) - 1)
			if r.Size == prev.Size {
				w.WriteBit(true)
			} else {
				w.WriteBit(false)
				w.Uvarint(uint64(r.Size))
			}
		}
		prev = r
	}
	p, err := w.Finish()
	if err != nil {
		// The bound above covers every encodable tuple; reaching this
		// means a caller bug, not bad input.
		panic(err)
	}
	return Frame{Op: OpReadBatchC, Tag: tag, Payload: p}
}

// DecodeReadBatchCInto parses a READBATCH-C payload, appending
// into a caller-owned slice.
func DecodeReadBatchCInto(p []byte, reqs []ReadReq) ([]ReadReq, error) {
	r := NewBitReader(p)
	count := r.Uvarint()
	if !compactCountOK(count, p) {
		return nil, fmt.Errorf("rdma: READBATCH-C count %d exceeds payload", count)
	}
	reqs = reqs[:0]
	var prev ReadReq
	for i := uint64(0); i < count; i++ {
		var req ReadReq
		if i == 0 {
			req.DS = uint32(r.Uvarint())
			req.Idx = uint32(r.Uvarint())
			req.Size = uint32(r.Uvarint())
		} else {
			if r.ReadBit() {
				req.DS = prev.DS
			} else {
				req.DS = uint32(r.Uvarint())
			}
			idx := int64(prev.Idx) + 1 + r.Svarint()
			if idx < 0 || idx > 1<<32-1 {
				return nil, fmt.Errorf("rdma: READBATCH-C index delta out of range at tuple %d", i)
			}
			req.Idx = uint32(idx)
			if r.ReadBit() {
				req.Size = prev.Size
			} else {
				req.Size = uint32(r.Uvarint())
			}
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("rdma: truncated READBATCH-C at tuple %d", i)
		}
		if req.Size > MaxFrame {
			return nil, fmt.Errorf("rdma: READBATCH-C size %d exceeds MaxFrame", req.Size)
		}
		reqs = append(reqs, req)
		prev = req
	}
	r.Align()
	if !r.Done() {
		return nil, fmt.Errorf("rdma: READBATCH-C trailing garbage")
	}
	return reqs, nil
}

// --- DATABATCH-C ---

// DataSegC is one decoded segment of a DATABATCH-C: the scheme,
// the decompressed length, and the wire bytes (a subslice of the
// payload; empty for SchemeZero).
type DataSegC struct {
	Scheme uint8
	RawLen uint32
	Data   []byte
}

// DecodeDataBatchCInto parses a DATABATCH-C payload, appending
// into a caller-owned slice (Data fields remain subslices of p).
func DecodeDataBatchCInto(p []byte, segs []DataSegC) ([]DataSegC, error) {
	r := NewBitReader(p)
	count := r.Uvarint()
	if !compactCountOK(count, p) {
		return nil, fmt.Errorf("rdma: DATABATCH-C count %d exceeds payload", count)
	}
	segs = segs[:0]
	for i := uint64(0); i < count; i++ {
		var s DataSegC
		s.Scheme = uint8(r.ReadBits(2))
		raw := r.Uvarint()
		if raw > MaxFrame {
			return nil, fmt.Errorf("rdma: DATABATCH-C segment %d rawLen %d exceeds MaxFrame", i, raw)
		}
		s.RawLen = uint32(raw)
		switch s.Scheme {
		case SchemeRaw, SchemeZero:
		case SchemeLZ:
			comp := r.Uvarint()
			if comp == 0 || comp >= raw || comp > uint64(len(p)) {
				return nil, fmt.Errorf("rdma: DATABATCH-C segment %d bad compressed length %d/%d", i, comp, raw)
			}
			// Stash the wire length until the blob pass below.
			s.Data = p[:comp:comp]
		default:
			return nil, fmt.Errorf("rdma: DATABATCH-C segment %d bad scheme", i)
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("rdma: truncated DATABATCH-C at segment %d", i)
		}
		segs = append(segs, s)
	}
	r.Align()
	for i := range segs {
		var n int
		switch segs[i].Scheme {
		case SchemeRaw:
			n = int(segs[i].RawLen)
		case SchemeLZ:
			n = len(segs[i].Data)
		}
		segs[i].Data = r.Bytes(n)
		if r.Err() != nil {
			return nil, fmt.Errorf("rdma: truncated DATABATCH-C blob %d", i)
		}
	}
	if !r.Done() {
		return nil, fmt.Errorf("rdma: DATABATCH-C trailing garbage")
	}
	return segs, nil
}

// dataSegMeta records one staged segment inside DataBatchCBuilder.
type dataSegMeta struct {
	scheme  uint8
	rawLen  uint32
	wireLen uint32
}

// DataBatchCBuilder assembles a DATABATCH-C reply. The server
// stages each object read into Stage — a slot carved in place out of
// the blob region — classifies it with Add (zero probe, optional
// compression), and emits the frame once per batch. Raw staged objects
// commit with no copy; only compressed ones bounce through scratch.
// All internal buffers are pooled and reused across batches, so a
// per-connection builder is allocation-free in steady state.
//
// A batch that will carry no LZ segments can additionally start with
// Begin: the bit-packed header's size is then exact up front (scheme
// and rawLen cost the same bits for raw and zero segments), so the
// header region is reserved inside the blob buffer and Frame emits the
// payload without copy-assembling it — the staged object bytes ARE the
// frame payload.
type DataBatchCBuilder struct {
	metas   []dataSegMeta
	data    []byte // accumulated wire blobs
	dlen    int
	hdr     int    // reserved header prefix length; 0 = copy mode
	scratch []byte // LZ bounce buffer for staged-in-place segments
}

// Reset drops the previous batch's segments (buffers are retained).
func (b *DataBatchCBuilder) Reset() {
	b.metas = b.metas[:0]
	b.dlen = 0
	b.hdr = 0
}

// uvarintBits is the exact bit cost of Uvarint(v): 5 bits per group.
func uvarintBits(v uint64) int {
	n := 5
	for v >= 16 {
		n += 5
		v >>= 4
	}
	return n
}

// Begin switches the batch to the reserved-header layout: reqs are the
// reads the batch will answer, in order, and every segment must commit
// through Add with tryCompress false (Add enforces this). The exact
// header prefix is reserved in the blob buffer and staged raw objects
// become the frame payload with no assembly copy.
func (b *DataBatchCBuilder) Begin(reqs []ReadReq) {
	bits := uvarintBits(uint64(len(reqs)))
	total := 0
	for _, r := range reqs {
		bits += 2 + uvarintBits(uint64(r.Size))
		total += int(r.Size)
	}
	b.hdr = (bits + 7) / 8
	b.dlen = 0
	b.ensureData(b.hdr + total)
	b.dlen = b.hdr
}

// Release returns the builder's internal buffers to the frame pool.
func (b *DataBatchCBuilder) Release() {
	PutBuf(b.data)
	PutBuf(b.scratch)
	b.data, b.scratch = nil, nil
	b.metas = nil
	b.dlen = 0
	b.hdr = 0
}

// Stage returns an n-byte staging slot for the next object's raw bytes.
// The slot is valid until the next Stage call. It is carved directly
// out of the blob region at the write position, so Add's raw path (the
// common case on an incompressible or compression-off session) commits
// the bytes in place with no copy.
func (b *DataBatchCBuilder) Stage(n int) []byte {
	b.ensureData(n)
	return b.data[b.dlen : b.dlen+n]
}

// stagedInPlace reports whether src is the slot the last Stage call
// returned, i.e. its bytes already sit in the blob region at dlen.
func (b *DataBatchCBuilder) stagedInPlace(src []byte) bool {
	return len(src) > 0 && b.dlen+len(src) <= len(b.data) && &src[0] == &b.data[b.dlen]
}

// ensureData grows the blob region to fit n more bytes. The region is
// always kept at its full capacity so Add can slice ahead of dlen.
func (b *DataBatchCBuilder) ensureData(n int) {
	if b.dlen+n <= len(b.data) {
		return
	}
	nb := GetBuf(max(2*cap(b.data), b.dlen+n))
	nb = nb[:cap(nb)]
	copy(nb, b.data[:b.dlen])
	PutBuf(b.data)
	b.data = nb
}

// Add appends one segment holding src's bytes, choosing the cheapest
// scheme: all-zero objects ship no bytes, and when tryCompress is set
// an LZ pass keeps the compressed form only if it is strictly smaller.
// It returns the chosen scheme and the segment's wire length (the
// compressibility signal the adaptive policy feeds on).
func (b *DataBatchCBuilder) Add(src []byte, tryCompress bool) (scheme uint8, wireLen int) {
	// The reserved-header layout (Begin) fixed the header size on the
	// assumption of raw/zero segments only; an LZ segment would grow it.
	tryCompress = tryCompress && b.hdr == 0
	staged := b.stagedInPlace(src)
	if isAllZero(src) {
		// dlen does not advance: a staged slot is simply abandoned.
		b.metas = append(b.metas, dataSegMeta{scheme: SchemeZero, rawLen: uint32(len(src))})
		return SchemeZero, 0
	}
	if tryCompress {
		if staged {
			// src occupies the blob region at dlen, so LZ output cannot go
			// there directly (the compressor must not overlap its input);
			// compress into scratch and copy back only the (smaller) result.
			bound := CompressBound(len(src))
			if cap(b.scratch) < bound {
				PutBuf(b.scratch)
				b.scratch = GetBuf(bound)
			}
			if n, ok := LZCompress(b.scratch[:bound], src); ok && n < len(src) {
				copy(b.data[b.dlen:], b.scratch[:n])
				b.metas = append(b.metas, dataSegMeta{scheme: SchemeLZ, rawLen: uint32(len(src)), wireLen: uint32(n)})
				b.dlen += n
				return SchemeLZ, n
			}
		} else {
			b.ensureData(CompressBound(len(src)))
			if n, ok := LZCompress(b.data[b.dlen:b.dlen+CompressBound(len(src))], src); ok && n < len(src) {
				b.metas = append(b.metas, dataSegMeta{scheme: SchemeLZ, rawLen: uint32(len(src)), wireLen: uint32(n)})
				b.dlen += n
				return SchemeLZ, n
			}
		}
	}
	if !staged {
		b.ensureData(len(src))
		copy(b.data[b.dlen:], src)
	}
	b.dlen += len(src)
	b.metas = append(b.metas, dataSegMeta{scheme: SchemeRaw, rawLen: uint32(len(src)), wireLen: uint32(len(src))})
	return SchemeRaw, len(src)
}

// Frame assembles the DATABATCH-C reply with a pooled payload;
// the caller should PutBuf the payload after writing the frame. A
// Begin batch hands off the blob buffer itself — the header bits are
// written into the reserved prefix and the staged bytes ship as-is.
func (b *DataBatchCBuilder) Frame(tag uint32) (Frame, error) {
	if b.hdr > 0 {
		if b.dlen > MaxFrame {
			return Frame{}, fmt.Errorf("rdma: DATABATCH-C too large (%d bytes)", b.dlen)
		}
		w := NewBitWriter(b.data[:b.hdr])
		w.Uvarint(uint64(len(b.metas)))
		for _, m := range b.metas {
			w.WriteBits(uint64(m.scheme), 2)
			w.Uvarint(uint64(m.rawLen))
		}
		w.Align()
		if err := w.Err(); err != nil {
			return Frame{}, err
		}
		if w.Len() != b.hdr {
			return Frame{}, fmt.Errorf("rdma: DATABATCH-C reserved header %d bytes, wrote %d (Begin/Add mismatch)", b.hdr, w.Len())
		}
		p := b.data[:b.dlen]
		// The caller PutBufs the payload, so the builder must forget
		// the buffer; the next batch draws a fresh one from the pool.
		b.data = nil
		b.dlen, b.hdr = 0, 0
		return Frame{Op: OpDataBatchC, Tag: tag, Payload: p}, nil
	}
	hdrBound := 6 + 13*len(b.metas)
	if hdrBound+b.dlen > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: DATABATCH-C too large (%d bytes)", hdrBound+b.dlen)
	}
	w := NewBitWriter(GetBuf(hdrBound + b.dlen))
	w.Uvarint(uint64(len(b.metas)))
	for _, m := range b.metas {
		w.WriteBits(uint64(m.scheme), 2)
		w.Uvarint(uint64(m.rawLen))
		if m.scheme == SchemeLZ {
			w.Uvarint(uint64(m.wireLen))
		}
	}
	w.Align()
	copy(w.Bytes(b.dlen), b.data[:b.dlen])
	p, err := w.Finish()
	if err != nil {
		return Frame{}, err
	}
	return Frame{Op: OpDataBatchC, Tag: tag, Payload: p}, nil
}

// --- WRITEBATCH-C / WRITEEPOCHBATCH-C ---

// WriteReqC is one tuple of a compact write batch. A nil Extents means
// a full-object write of RawLen bytes; otherwise the tuple is a range
// write over an ObjSize-byte object and Data carries the extents'
// bytes concatenated. Data always holds the wire form (compressed when
// Scheme is SchemeLZ, absent when SchemeZero); RawLen is the
// decompressed length.
type WriteReqC struct {
	DS, Idx uint32
	Epoch   uint64 // epoch batches only
	ObjSize uint32 // range tuples only
	Extents []Extent
	Scheme  uint8
	RawLen  uint32
	Data    []byte

	nExt int // decode scratch: extent count before the arena fixup
}

// WriteReqCBound is the worst-case payload contribution of one tuple
// with dataLen wire bytes and nExt extents — what the flusher sums
// against MaxFrame before closing a batch. Compression only shrinks
// dataLen, so bounding with the raw length is safe.
func WriteReqCBound(dataLen, nExt int, epoch bool) int {
	n := 22 + dataLen // ds + idx + kind/scheme bits + lengths
	if epoch {
		n += 10
	}
	if nExt > 0 {
		n += 12 + 10*nExt
	}
	return n
}

// WriteBatchCSize bounds the payload for reqs (see WriteReqCBound).
func WriteBatchCSize(reqs []WriteReqC, epoch bool) int {
	n := 6
	for i := range reqs {
		n += WriteReqCBound(len(reqs[i].Data), len(reqs[i].Extents), epoch)
	}
	return n
}

// EncodeWriteBatchCPooled builds a WRITEBATCH-C (or, with epoch set,
// WRITEEPOCHBATCH-C) frame with a pooled payload.
func EncodeWriteBatchCPooled(tag uint32, reqs []WriteReqC, epoch bool) (Frame, error) {
	bound := WriteBatchCSize(reqs, epoch)
	if bound > MaxFrame+64 {
		return Frame{}, fmt.Errorf("rdma: WRITEBATCH-C too large (%d bytes)", bound)
	}
	w := NewBitWriter(GetBuf(bound))
	w.Uvarint(uint64(len(reqs)))
	var prevDS, prevIdx uint32
	for i := range reqs {
		r := &reqs[i]
		if i == 0 {
			w.Uvarint(uint64(r.DS))
			w.Uvarint(uint64(r.Idx))
		} else {
			if r.DS == prevDS {
				w.WriteBit(true)
			} else {
				w.WriteBit(false)
				w.Uvarint(uint64(r.DS))
			}
			w.Svarint(int64(r.Idx) - int64(prevIdx) - 1)
		}
		prevDS, prevIdx = r.DS, r.Idx
		if epoch {
			w.Uvarint(r.Epoch)
		}
		if r.Extents == nil {
			w.WriteBit(false)
			w.WriteBits(uint64(r.Scheme), 2)
			w.Uvarint(uint64(r.RawLen))
		} else {
			w.WriteBit(true)
			w.Uvarint(uint64(r.ObjSize))
			w.Uvarint(uint64(len(r.Extents)))
			end := uint32(0)
			for k, e := range r.Extents {
				if k == 0 {
					w.Uvarint(uint64(e.Off))
				} else {
					w.Uvarint(uint64(e.Off - end))
				}
				w.Uvarint(uint64(e.Len - 1))
				end = e.Off + e.Len
			}
			w.WriteBits(uint64(r.Scheme), 2)
		}
		if r.Scheme == SchemeLZ {
			w.Uvarint(uint64(len(r.Data)))
		}
	}
	w.Align()
	for i := range reqs {
		if n := len(reqs[i].Data); n > 0 {
			copy(w.Bytes(n), reqs[i].Data)
		}
	}
	p, err := w.Finish()
	if err != nil {
		return Frame{}, err
	}
	if len(p) > MaxFrame {
		PutBuf(p)
		return Frame{}, fmt.Errorf("rdma: WRITEBATCH-C too large (%d bytes)", len(p))
	}
	op := OpWriteBatchC
	if epoch {
		op = OpWriteEpochBatchC
	}
	return Frame{Op: op, Tag: tag, Payload: p}, nil
}

// DecodeWriteBatchCInto parses a compact write batch, appending tuples
// into reqs and extents into the exts arena (tuples' Extents fields
// are subslices of the returned arena; Data fields are subslices of
// p). Every range extent is validated against its tuple's object size.
func DecodeWriteBatchCInto(p []byte, reqs []WriteReqC, exts []Extent, epoch bool) ([]WriteReqC, []Extent, error) {
	r := NewBitReader(p)
	count := r.Uvarint()
	if !compactCountOK(count, p) {
		return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C count %d exceeds payload", count)
	}
	reqs = reqs[:0]
	exts = exts[:0]
	var prevDS, prevIdx uint32
	for i := uint64(0); i < count; i++ {
		var req WriteReqC
		if i == 0 {
			req.DS = uint32(r.Uvarint())
			req.Idx = uint32(r.Uvarint())
		} else {
			if r.ReadBit() {
				req.DS = prevDS
			} else {
				req.DS = uint32(r.Uvarint())
			}
			idx := int64(prevIdx) + 1 + r.Svarint()
			if idx < 0 || idx > 1<<32-1 {
				return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C index delta out of range at tuple %d", i)
			}
			req.Idx = uint32(idx)
		}
		prevDS, prevIdx = req.DS, req.Idx
		if epoch {
			req.Epoch = r.Uvarint()
		}
		if r.ReadBit() {
			// Range tuple.
			objSize := r.Uvarint()
			if objSize == 0 || objSize > MaxFrame {
				return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d bad object size %d", i, objSize)
			}
			req.ObjSize = uint32(objSize)
			nExt := r.Uvarint()
			if nExt == 0 || nExt > MaxExtents {
				return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d bad extent count %d", i, nExt)
			}
			req.nExt = int(nExt)
			end := uint64(0)
			total := uint64(0)
			for k := uint64(0); k < nExt; k++ {
				off := end + r.Uvarint()
				l := r.Uvarint() + 1
				if r.Err() != nil {
					return nil, exts, fmt.Errorf("rdma: truncated WRITEBATCH-C at tuple %d", i)
				}
				if off+l > objSize {
					return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d extent [%d,+%d) exceeds object size %d",
						i, off, l, objSize)
				}
				exts = append(exts, Extent{Off: uint32(off), Len: uint32(l)})
				end = off + l
				total += l
			}
			req.RawLen = uint32(total)
			req.Scheme = uint8(r.ReadBits(2))
		} else {
			req.Scheme = uint8(r.ReadBits(2))
			raw := r.Uvarint()
			if raw > MaxFrame {
				return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d rawLen %d exceeds MaxFrame", i, raw)
			}
			req.RawLen = uint32(raw)
		}
		switch req.Scheme {
		case SchemeRaw, SchemeZero:
		case SchemeLZ:
			comp := r.Uvarint()
			if comp == 0 || comp >= uint64(req.RawLen) || comp > uint64(len(p)) {
				return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d bad compressed length %d/%d",
					i, comp, req.RawLen)
			}
			// Stash the wire length until the blob pass below.
			req.Data = p[:comp:comp]
		default:
			return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d bad scheme", i)
		}
		if err := r.Err(); err != nil {
			return nil, exts, fmt.Errorf("rdma: truncated WRITEBATCH-C at tuple %d", i)
		}
		reqs = append(reqs, req)
	}
	r.Align()
	for i := range reqs {
		var n int
		switch reqs[i].Scheme {
		case SchemeRaw:
			n = int(reqs[i].RawLen)
		case SchemeLZ:
			n = len(reqs[i].Data)
		}
		reqs[i].Data = r.Bytes(n)
		if r.Err() != nil {
			return nil, exts, fmt.Errorf("rdma: truncated WRITEBATCH-C blob %d", i)
		}
	}
	if !r.Done() {
		return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C trailing garbage")
	}
	// The exts arena may have been reallocated by append; fix up the
	// tuples' subslices in a final pass.
	off := 0
	for i := range reqs {
		if n := reqs[i].nExt; n > 0 {
			reqs[i].Extents = exts[off : off+n : off+n]
			off += n
		}
	}
	return reqs, exts, nil
}

// --- ACKBATCH-C ---

// EncodeAckBatchC builds the ACKBATCH-C reply: the tuple count
// plus one rejected bit per tuple (rejected is a bitmap in uint64
// words; nil means none rejected). The payload is pooled.
func EncodeAckBatchC(tag uint32, count int, rejected []uint64) Frame {
	w := NewBitWriter(GetBuf(6 + (count+7)/8 + 8))
	w.Uvarint(uint64(count))
	for i := 0; i < count; i++ {
		bit := uint64(0)
		if rejected != nil && rejected[i/64]>>(i%64)&1 != 0 {
			bit = 1
		}
		w.WriteBits(bit, 1)
	}
	p, err := w.Finish()
	if err != nil {
		panic(err)
	}
	return Frame{Op: OpAckBatchC, Tag: tag, Payload: p}
}

// DecodeAckBatchC parses an ACKBATCH-C payload into the tuple
// count and the rejected bitmap, appending words into a caller-owned
// scratch slice (returned grown for reuse); any reports whether at
// least one tuple was rejected.
func DecodeAckBatchC(p []byte, scratch []uint64) (count int, rejected []uint64, any bool, err error) {
	r := NewBitReader(p)
	n := r.Uvarint()
	if !compactCountOK(n, p) {
		return 0, scratch, false, fmt.Errorf("rdma: ACKBATCH-C count %d exceeds payload", n)
	}
	scratch = scratch[:0]
	for i := uint64(0); i < n; i++ {
		if i%64 == 0 {
			scratch = append(scratch, 0)
		}
		if r.ReadBit() {
			scratch[i/64] |= 1 << (i % 64)
			any = true
		}
	}
	r.Align()
	if !r.Done() {
		return 0, scratch, false, fmt.Errorf("rdma: ACKBATCH-C trailing garbage")
	}
	return int(n), scratch, any, nil
}
