package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// le32s packs little-endian u32s, for hand-assembled seed payloads.
func le32s(vs ...uint32) []byte {
	p := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(p[4*i:], v)
	}
	return p
}

// frameBytes serializes f in plain or checksummed framing for seeding.
func frameBytes(t *testing.F, f Frame, crc bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if crc {
		err = WriteFrameCRC(&buf, f)
	} else {
		err = WriteFrame(&buf, f)
	}
	if err != nil {
		t.Fatalf("seed encode: %v", err)
	}
	return buf.Bytes()
}

// FuzzFrameDecode feeds arbitrary byte streams to both frame decoders
// (plain and CRC-trailer framing) and checks the invariants every
// successfully decoded frame must satisfy:
//
//   - neither decoder panics, whatever the input;
//   - a decoded frame re-encodes and decodes back identically (both
//     framings) — the codec is a bijection on its valid range;
//   - a corrupted CRC trailer is always detected (ErrCRC);
//   - the per-opcode payload decoders never panic, and on success
//     re-encode byte-identically.
func FuzzFrameDecode(f *testing.F) {
	// Valid frames across the opcode space: untagged, tagged, empty and
	// non-empty payloads, batch encodings.
	seeds := []Frame{
		Hello(OpPing, FeatTrace|FeatCompress),
		Hello(OpOK, FeatCompress),
		{Op: OpPing},
		{Op: OpOK},
		ErrFrame("remote store: no such object"),
		ErrTagFrame(11, "boom"),
	}
	// Epoch-stamped read verbs: the fixed-width request and the stamped
	// scatter-gather reply — including a zero-epoch (absent object)
	// segment and an empty payload.
	seeds = append(seeds, EncodeReadEpochBatch(13, []ReadReq{{DS: 2, Idx: 7, Size: 16}, {DS: 2, Idx: 8, Size: 0}}))
	if db, err := EncodeDataEpochBatch(15, []EpochSeg{
		{Epoch: 9, Data: []byte("stamped")},
		{Epoch: 0, Data: nil},
	}); err == nil {
		seeds = append(seeds, db)
	}
	// The verbs of the version-1 protocol, as a version-1 peer framed
	// them: a version-2 decoder must parse the frames without panicking,
	// name the opcodes unknown, and leave them to the server's
	// unexpected-op rejection. The feature-mask PING is the version-1
	// handshake.
	tuple := le32s(1, 2, 32)
	write := append(le32s(3, 4, 13), "payload bytes"...)
	seeds = append(seeds,
		Frame{Op: 1, Payload: tuple},                                                            // READ
		Frame{Op: 2, Payload: write},                                                            // WRITE
		Frame{Op: 4, Payload: bytes.Repeat([]byte{0xAB}, 100)},                                  // DATA
		Frame{Op: TagBit | 0x01, Tag: 7, Payload: append(le32s(2), append(tuple, tuple...)...)}, // READBATCH
		Frame{Op: TagBit | 0x02, Tag: 7, Payload: append(le32s(1, 4), "aaaa"...)},               // DATABATCH
		Frame{Op: TagBit | 0x03, Tag: 9, Payload: write},                                        // WRITETAG
		Frame{Op: TagBit | 0x04, Tag: 9},                                                        // ACKTAG
		Frame{Op: TagBit | 0x06, Tag: 8, Payload: append(le32s(1), write...)},                   // WRITEBATCH
		Frame{Op: TagBit | 0x07, Tag: 8, Payload: le32s(1)},                                     // ACKBATCH
		Frame{Op: TagBit | 0x08, Tag: 14, Payload: le32s(1, 1, 2, 1, 0, 0)},                     // WRITEEPOCHBATCH
		Frame{Op: OpPing, Payload: le32s(0xFF)},                                                 // version-1 feature PING
	)
	// Traversal-offload verbs (the FeatChase extension): programs with
	// and without field masks, and replies across the status space —
	// multi-hop done, budget-exhausted, and an empty path.
	seeds = append(seeds, EncodeChaseBatch(16, []ChaseReq{
		{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 16},
		{DS: 2, Start: 7, ObjSize: 32, NextOff: 24, Hops: 1, Mask: 0x9},
	}))
	if cd, err := EncodeChaseData(17, []ChaseResult{
		{Status: ChaseDone, Final: 0xFEED, Hops: []ChaseHop{
			{Idx: 0, Data: bytes.Repeat([]byte{0x6C}, 64)},
			{Idx: 3, Data: bytes.Repeat([]byte{0x6D}, 64)},
		}},
		{Status: ChaseHops, Final: chaseAddrTagBit | 2<<chaseAddrDSShift | 96,
			Hops: []ChaseHop{{Idx: 9, Data: bytes.Repeat([]byte{0x6E}, 32)}}},
		{Status: ChaseDone, Final: 0, Hops: nil},
	}); err == nil {
		seeds = append(seeds, cd)
	}
	// Compact-tier verbs:
	// delta-encoded read batches, mixed-scheme data batches, write
	// batches with full, zero, compressed and range tuples, and the
	// rejected-bitmap ack.
	seeds = append(seeds, EncodeReadBatchCPooled(18, []ReadReq{
		{DS: 2, Idx: 100, Size: 4096}, {DS: 2, Idx: 101, Size: 4096},
		{DS: 5, Idx: 3, Size: 64}, {DS: 5, Idx: 1, Size: 0},
	}))
	{
		var b DataBatchCBuilder
		b.Add(make([]byte, 256), true)                              // zero
		b.Add(bytes.Repeat([]byte("compressible seed "), 32), true) // lz
		b.Add([]byte{9, 1, 1, 2, 3, 5, 8, 13}, true)                // raw
		if db, err := b.Frame(19); err == nil {
			seeds = append(seeds, db)
		}
		b.Release()
	}
	{
		body := bytes.Repeat([]byte("write seed body "), 24)
		comp := make([]byte, CompressBound(len(body)))
		n, _ := LZCompress(comp, body)
		reqs := []WriteReqC{
			{DS: 1, Idx: 40, Epoch: 6, Scheme: SchemeRaw, RawLen: 8, Data: []byte("8 bytes!")},
			{DS: 1, Idx: 41, Epoch: 7, Scheme: SchemeZero, RawLen: 1024},
			{DS: 3, Idx: 0, Epoch: 1, Scheme: SchemeLZ, RawLen: uint32(len(body)), Data: comp[:n]},
			{DS: 3, Idx: 2, Epoch: 8, ObjSize: 4096, Scheme: SchemeRaw, RawLen: 20,
				Extents: []Extent{{Off: 0, Len: 16}, {Off: 128, Len: 4}},
				Data:    make([]byte, 20)},
		}
		for _, epoch := range []bool{false, true} {
			if wb, err := EncodeWriteBatchCPooled(20, reqs, epoch); err == nil {
				seeds = append(seeds, wb)
			}
		}
		// A bogus range (offset+len > objSize): the encoder trusts its
		// caller, so this seeds the decoder's rejection path.
		if wb, err := EncodeWriteBatchCPooled(21, []WriteReqC{{
			DS: 1, Idx: 0, ObjSize: 32, Scheme: SchemeRaw, RawLen: 16,
			Extents: []Extent{{Off: 24, Len: 16}}, Data: make([]byte, 16),
		}}, false); err == nil {
			seeds = append(seeds, wb)
		}
	}
	seeds = append(seeds, EncodeAckBatchC(22, 70, []uint64{1 << 3, 1 << 5}))
	// Truncated compact bit streams: a write batch cut mid-header and a
	// read batch cut mid-varint.
	if wb, err := EncodeWriteBatchCPooled(23, []WriteReqC{
		{DS: 9, Idx: 9, Scheme: SchemeRaw, RawLen: 64, Data: make([]byte, 64)},
	}, true); err == nil {
		seeds = append(seeds, Frame{Op: wb.Op, Tag: wb.Tag, Payload: wb.Payload[:3]})
	}
	{
		rb := EncodeReadBatchCPooled(24, []ReadReq{{DS: 1, Idx: 2, Size: 3}, {DS: 1, Idx: 9, Size: 3}})
		seeds = append(seeds, Frame{Op: rb.Op, Tag: rb.Tag, Payload: rb.Payload[:len(rb.Payload)-1]})
	}
	for _, fr := range seeds {
		f.Add(frameBytes(f, fr, false))
		f.Add(frameBytes(f, fr, true))
	}
	// Adversarial shapes: truncated header, truncated payload, oversized
	// length prefix, tagged opcode with missing tag, trailing garbage.
	f.Add([]byte{})
	f.Add([]byte{0x0C, 0x00, 0x00})                                  // torn header
	f.Add([]byte{0x0C, 0x00, 0x00, 0x00, byte(OpErr), 1, 2, 3})      // torn payload
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(OpErr)})               // oversized length
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, byte(OpReadBatchC)})        // tagged, no tag bytes
	f.Add(append(frameBytes(f, Frame{Op: OpOK}, false), 0xDE, 0xAD)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		// The CRC decoder must tolerate the same arbitrary inputs; its
		// result is checked only through the round-trip below.
		if _, err := ReadFrameCRC(bytes.NewReader(data)); err != nil {
			_ = err
		}

		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(fr.Payload) > MaxFrame {
			t.Fatalf("decoded frame exceeds MaxFrame: %d bytes", len(fr.Payload))
		}
		if !fr.Op.Tagged() && fr.Tag != 0 {
			t.Fatalf("untagged frame %s decoded with tag %d", fr.Op, fr.Tag)
		}

		// Plain-framing round trip.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if got.Op != fr.Op || got.Tag != fr.Tag || !bytes.Equal(got.Payload, fr.Payload) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, fr)
		}

		// CRC-framing round trip, and trailer corruption detection.
		buf.Reset()
		if err := WriteFrameCRC(&buf, fr); err != nil {
			t.Fatalf("crc re-encode: %v", err)
		}
		enc := append([]byte(nil), buf.Bytes()...)
		got, err = ReadFrameCRC(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("crc re-decode: %v", err)
		}
		if got.Op != fr.Op || got.Tag != fr.Tag || !bytes.Equal(got.Payload, fr.Payload) {
			t.Fatalf("crc round trip mismatch: %+v != %+v", got, fr)
		}
		enc[len(enc)-1] ^= 0xFF // any trailer bit flip must be caught
		if _, err := ReadFrameCRC(bytes.NewReader(enc)); !errors.Is(err, ErrCRC) {
			t.Fatalf("corrupted trailer not detected: err=%v", err)
		}

		// Payload decoders: no panics, and success implies an identical
		// re-encoding.
		for _, op := range deletedOps {
			if fr.Op == op && !strings.HasPrefix(fr.Op.String(), "op(") {
				t.Fatalf("deleted opcode %d decoded as %s", uint8(op), fr.Op)
			}
		}
		switch fr.Op {
		case OpReadEpochBatch:
			if reqs, err := DecodeReadEpochBatch(fr.Payload); err == nil {
				if re := EncodeReadEpochBatch(fr.Tag, reqs); !bytes.Equal(re.Payload, fr.Payload) {
					t.Fatalf("READEPOCHBATCH re-encode mismatch")
				}
			}
		case OpDataEpochBatch:
			if segs, err := DecodeDataEpochBatch(fr.Payload); err == nil {
				re, err := EncodeDataEpochBatch(fr.Tag, segs)
				if err != nil {
					t.Fatalf("DATAEPOCHBATCH re-encode: %v", err)
				}
				if !bytes.Equal(re.Payload, fr.Payload) {
					t.Fatalf("DATAEPOCHBATCH re-encode mismatch")
				}
			}
		case OpChaseBatch:
			if reqs, err := DecodeChaseBatch(fr.Payload); err == nil {
				if re := EncodeChaseBatch(fr.Tag, reqs); !bytes.Equal(re.Payload, fr.Payload) {
					t.Fatalf("CHASEBATCH re-encode mismatch")
				}
				// Programs a server would run must survive Validate without
				// panicking; accepted ones must carry a bounded walk.
				for _, r := range reqs {
					if r.Validate() == nil && r.Hops == 0 {
						t.Fatalf("validated program with zero hop budget: %+v", r)
					}
				}
			}
		case OpChaseData:
			if res, err := DecodeChaseData(fr.Payload); err == nil {
				re, err := EncodeChaseData(fr.Tag, res)
				if err != nil {
					t.Fatalf("CHASEDATA re-encode: %v", err)
				}
				if !bytes.Equal(re.Payload, fr.Payload) {
					t.Fatalf("CHASEDATA re-encode mismatch")
				}
			}
		case OpPing, OpOK:
			if v, feats, ok := DecodeHello(fr.Payload); ok {
				if re := Hello(fr.Op, feats); v == ProtocolVersion && !bytes.Equal(re.Payload, fr.Payload) {
					t.Fatalf("handshake re-encode mismatch")
				}
			}
		case OpReadBatchC:
			// The compact encodings are non-canonical (a repeated DS may
			// arrive as either the same-DS bit or an explicit varint), so
			// the invariant is semantic: decode → encode → decode is an
			// identity on the decoded form.
			if reqs, err := DecodeReadBatchCInto(fr.Payload, nil); err == nil {
				re := EncodeReadBatchCPooled(fr.Tag, reqs)
				got, err := DecodeReadBatchCInto(re.Payload, nil)
				if err != nil {
					t.Fatalf("READBATCH-C re-decode: %v", err)
				}
				if len(got) != len(reqs) {
					t.Fatalf("READBATCH-C count changed: %d != %d", len(got), len(reqs))
				}
				for i := range reqs {
					if got[i] != reqs[i] {
						t.Fatalf("READBATCH-C tuple %d changed: %+v != %+v", i, got[i], reqs[i])
					}
				}
				PutBuf(re.Payload)
			}
		case OpDataBatchC:
			if segs, err := DecodeDataBatchCInto(fr.Payload, nil); err == nil {
				for i, s := range segs {
					if s.Scheme == SchemeLZ {
						// Accepted compressed segments must decompress to
						// exactly RawLen bytes or fail cleanly — no panic,
						// no out-of-bounds write.
						out := make([]byte, s.RawLen)
						_ = LZDecompress(out, s.Data)
						_ = i
					}
				}
			}
		case OpWriteBatchC, OpWriteEpochBatchC:
			epoch := fr.Op == OpWriteEpochBatchC
			if reqs, _, err := DecodeWriteBatchCInto(fr.Payload, nil, nil, epoch); err == nil {
				for i := range reqs {
					r := &reqs[i]
					// Decode-accepted extents must stay inside the object.
					for _, e := range r.Extents {
						if uint64(e.Off)+uint64(e.Len) > uint64(r.ObjSize) {
							t.Fatalf("WRITEBATCH-C accepted extent outside object: %+v objSize=%d", e, r.ObjSize)
						}
					}
					if r.Scheme == SchemeLZ {
						out := make([]byte, r.RawLen)
						_ = LZDecompress(out, r.Data)
					}
				}
				re, err := EncodeWriteBatchCPooled(fr.Tag, reqs, epoch)
				if err != nil {
					t.Fatalf("WRITEBATCH-C re-encode: %v", err)
				}
				got, _, err := DecodeWriteBatchCInto(re.Payload, nil, nil, epoch)
				if err != nil {
					t.Fatalf("WRITEBATCH-C re-decode: %v", err)
				}
				if len(got) != len(reqs) {
					t.Fatalf("WRITEBATCH-C count changed: %d != %d", len(got), len(reqs))
				}
				for i := range reqs {
					w, g := &reqs[i], &got[i]
					if g.DS != w.DS || g.Idx != w.Idx || g.Epoch != w.Epoch ||
						g.Scheme != w.Scheme || g.RawLen != w.RawLen ||
						g.ObjSize != w.ObjSize || len(g.Extents) != len(w.Extents) ||
						!bytes.Equal(g.Data, w.Data) {
						t.Fatalf("WRITEBATCH-C tuple %d changed", i)
					}
					for k := range w.Extents {
						if g.Extents[k] != w.Extents[k] {
							t.Fatalf("WRITEBATCH-C tuple %d extent %d changed", i, k)
						}
					}
				}
				PutBuf(re.Payload)
			}
		case OpAckBatchC:
			if count, rej, any, err := DecodeAckBatchC(fr.Payload, nil); err == nil {
				var bm []uint64
				if any {
					bm = append([]uint64(nil), rej...)
				}
				re := EncodeAckBatchC(fr.Tag, count, bm)
				count2, rej2, any2, err := DecodeAckBatchC(re.Payload, nil)
				if err != nil || count2 != count || any2 != any {
					t.Fatalf("ACKBATCH-C changed: count %d->%d any %v->%v err=%v",
						count, count2, any, any2, err)
				}
				if any {
					for i := range bm {
						if rej2[i] != bm[i] {
							t.Fatalf("ACKBATCH-C bitmap word %d changed", i)
						}
					}
				}
				PutBuf(re.Payload)
			}
		}
	})
}
