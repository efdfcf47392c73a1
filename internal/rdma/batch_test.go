package rdma

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"
)

func TestTaggedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Op: OpDataBatchC, Tag: 0xDEADBEEF, Payload: []byte{4, 0, 0, 0}}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	// Wire layout: u32 len | u8 op | u32 tag | payload.
	raw := buf.Bytes()
	if got := binary.LittleEndian.Uint32(raw[0:4]); got != uint32(len(in.Payload)) {
		t.Fatalf("payloadLen on wire = %d, want %d (must exclude the tag)", got, len(in.Payload))
	}
	if Op(raw[4]) != OpDataBatchC {
		t.Fatalf("op on wire = %d", raw[4])
	}
	if got := binary.LittleEndian.Uint32(raw[5:9]); got != in.Tag {
		t.Fatalf("tag on wire = %#x, want %#x", got, in.Tag)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Tag != in.Tag || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("roundtrip: %+v vs %+v", in, out)
	}
	if want := uint64(len(raw)); in.WireSize() != want {
		t.Fatalf("WireSize = %d, want %d", in.WireSize(), want)
	}
}

func TestUntaggedFramesUnchanged(t *testing.T) {
	// Untagged frames (the handshake and ERR) carry no tag on the wire,
	// so a peer of any protocol version can parse them.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Op: OpOK, Tag: 0xFFFFFFFF}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 5 {
		t.Fatalf("untagged empty frame = %d bytes, want 5", buf.Len())
	}
	f, err := ReadFrame(&buf)
	if err != nil || f.Tag != 0 {
		t.Fatalf("f = %+v, err = %v (untagged reads must leave Tag zero)", f, err)
	}
}

func TestTaggedOpPredicate(t *testing.T) {
	for _, op := range []Op{OpErrTag, OpReadEpochBatch, OpDataEpochBatch, OpChaseBatch, OpChaseData,
		OpReadBatchC, OpDataBatchC, OpWriteBatchC, OpWriteEpochBatchC, OpAckBatchC} {
		if !op.Tagged() {
			t.Errorf("%s should be tagged", op)
		}
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("missing name for tagged op %d", op)
		}
	}
	for _, op := range []Op{OpPing, OpOK, OpErr} {
		if op.Tagged() {
			t.Errorf("%s should not be tagged", op)
		}
	}
}

func TestTaggedFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{Op: OpAckBatchC, Tag: 7, Payload: nil})
	raw := buf.Bytes()
	// Cut inside the tag: header parses, tag read must fail.
	if _, err := ReadFrame(bytes.NewReader(raw[:7])); err == nil {
		t.Fatal("truncated tag should fail")
	}
}

// The fixed-width batch codecs are the epoch read pair: READEPOCHBATCH
// tuples and the DATAEPOCHBATCH scatter-gather reply.

func TestReadBatchCodec(t *testing.T) {
	reqs := []ReadReq{{DS: 1, Idx: 2, Size: 64}, {DS: 3, Idx: 9, Size: 4096}}
	f := EncodeReadEpochBatch(42, reqs)
	if f.Op != OpReadEpochBatch || f.Tag != 42 {
		t.Fatalf("frame = %+v", f)
	}
	got, err := DecodeReadEpochBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != reqs[0] || got[1] != reqs[1] {
		t.Fatalf("got %+v", got)
	}

	if _, err := DecodeReadEpochBatch([]byte{1, 2}); err == nil {
		t.Fatal("short payload should fail")
	}
	// Truncated tuple list: count says 2, payload carries 1.
	trunc := f.Payload[:4+readReqSize]
	if _, err := DecodeReadEpochBatch(trunc); err == nil {
		t.Fatal("truncated batch should fail")
	}
	// Trailing garbage.
	long := append(append([]byte(nil), f.Payload...), 0xAA)
	if _, err := DecodeReadEpochBatch(long); err == nil {
		t.Fatal("trailing garbage should fail")
	}
}

func TestDataBatchCodec(t *testing.T) {
	segs := []EpochSeg{{Epoch: 4, Data: []byte("abc")}, {}, {Epoch: 1 << 40, Data: []byte("0123456789")}}
	f, err := EncodeDataEpochBatch(7, segs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != OpDataEpochBatch || f.Tag != 7 {
		t.Fatalf("frame = %+v", f)
	}
	got, err := DecodeDataEpochBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(segs) {
		t.Fatalf("got %d segments", len(got))
	}
	for i := range segs {
		if got[i].Epoch != segs[i].Epoch || !bytes.Equal(got[i].Data, segs[i].Data) {
			t.Errorf("segment %d = %+v, want %+v", i, got[i], segs[i])
		}
	}
}

func TestDataBatchTruncation(t *testing.T) {
	f, _ := EncodeDataEpochBatch(1, []EpochSeg{{Epoch: 2, Data: []byte("payload")}})
	p := f.Payload
	if _, err := DecodeDataEpochBatch(p[:2]); err == nil {
		t.Fatal("short header should fail")
	}
	if _, err := DecodeDataEpochBatch(p[:10]); err == nil {
		t.Fatal("cut inside segment header should fail")
	}
	if _, err := DecodeDataEpochBatch(p[:len(p)-2]); err == nil {
		t.Fatal("cut inside segment bytes should fail")
	}
	if _, err := DecodeDataEpochBatch(append(append([]byte(nil), p...), 0)); err == nil {
		t.Fatal("trailing garbage should fail")
	}
	// Forged count far beyond the payload must not drive the allocation.
	forged := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := DecodeDataEpochBatch(forged); err == nil {
		t.Fatal("forged count should fail")
	}
}

func TestDataBatchOversized(t *testing.T) {
	// One segment over MaxFrame: encode must refuse (the write path), and
	// a forged oversized tagged header must be rejected before the tag is
	// even read (the read path).
	if _, err := EncodeDataEpochBatch(1, []EpochSeg{{Data: make([]byte, MaxFrame)}}); err == nil {
		t.Fatal("oversized DATAEPOCHBATCH encode should fail")
	}
	if err := WriteFrame(&bytes.Buffer{}, Frame{Op: OpDataEpochBatch, Tag: 1, Payload: make([]byte, MaxFrame+1)}); err == nil {
		t.Fatal("oversized tagged write should fail")
	}
	forged := []byte{0xff, 0xff, 0xff, 0xff, byte(OpDataEpochBatch), 1, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(forged)); err == nil {
		t.Fatal("oversized tagged read should fail")
	}
}

func TestDataBatchSizeBudget(t *testing.T) {
	reqs := []ReadReq{{Size: 100}, {Size: 0}, {Size: 4096}}
	want := 4 + (12 + 100) + (12 + 0) + (12 + 4096)
	if got := DataEpochBatchSize(reqs); got != want {
		t.Fatalf("DataEpochBatchSize = %d, want %d", got, want)
	}
	// The budget must equal what EncodeDataEpochBatch actually produces.
	segs := []EpochSeg{{Data: make([]byte, 100)}, {}, {Data: make([]byte, 4096)}}
	f, err := EncodeDataEpochBatch(1, segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Payload) != want {
		t.Fatalf("encoded payload = %d bytes, budget said %d", len(f.Payload), want)
	}
}

// TestFeatureNegotiationCodec pins the handshake payload: the protocol
// version and the negotiable feature mask, in both directions.
func TestFeatureNegotiationCodec(t *testing.T) {
	for _, op := range []Op{OpPing, OpOK} {
		f := Hello(op, FeatTrace)
		if f.Op != op {
			t.Fatal("wrong op")
		}
		version, feats, ok := DecodeHello(f.Payload)
		if !ok || version != ProtocolVersion || feats != FeatTrace {
			t.Fatalf("%s: version %d feats %#x ok %v", op, version, feats, ok)
		}
	}
	// A version-1 peer's bare feature mask (or an empty PING) is not a
	// handshake of any version.
	for _, p := range [][]byte{nil, {1, 2}, {0xFF, 0, 0, 0}, make([]byte, 9)} {
		if _, _, ok := DecodeHello(p); ok {
			t.Fatalf("payload %x decoded as a handshake", p)
		}
	}
	if Features != FeatTrace|FeatCompress {
		t.Fatalf("negotiable features = %#x, want trace|compress", Features)
	}
}

func TestErrTagFrame(t *testing.T) {
	f := ErrTagFrame(9, "boom")
	if f.Op != OpErrTag || f.Tag != 9 || string(f.Payload) != "boom" {
		t.Fatalf("frame = %+v", f)
	}
}

// Property: arbitrary read batches roundtrip through frame + codec.
func TestReadBatchProperty(t *testing.T) {
	f := func(tag uint32, tuples []ReadReq) bool {
		if len(tuples) > 1024 {
			tuples = tuples[:1024]
		}
		fr := EncodeReadEpochBatch(tag, tuples)
		var buf bytes.Buffer
		if WriteFrame(&buf, fr) != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil || got.Tag != tag || got.Op != OpReadEpochBatch {
			return false
		}
		reqs, err := DecodeReadEpochBatch(got.Payload)
		if err != nil || len(reqs) != len(tuples) {
			return false
		}
		for i := range reqs {
			if reqs[i] != tuples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
