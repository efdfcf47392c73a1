package rdma

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Op: OpErr, Payload: []byte("hello far memory")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("roundtrip: %+v vs %+v", in, out)
	}
}

func TestEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Op: OpOK}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil || f.Op != OpOK || len(f.Payload) != 0 {
		t.Fatalf("f = %+v, err = %v", f, err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Op: OpErr, Payload: make([]byte, MaxFrame+1)}); err == nil {
		t.Fatal("oversized write should fail")
	}
	// Forged oversized header.
	forged := []byte{0xff, 0xff, 0xff, 0xff, byte(OpErr)}
	if _, err := ReadFrame(bytes.NewReader(forged)); err == nil {
		t.Fatal("oversized read should fail")
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{Op: OpErr, Payload: []byte("abcdef")})
	raw := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(raw[:3])); err == nil {
		t.Fatal("truncated header should fail")
	}
	if _, err := ReadFrame(bytes.NewReader(raw[:7])); err == nil {
		t.Fatal("truncated payload should fail")
	}
}

// TestReadReqCodec pins the fixed-width (ds, idx, size) read tuple
// that READEPOCHBATCH carries: 12 bytes per tuple behind a u32 count.
func TestReadReqCodec(t *testing.T) {
	f := EncodeReadEpochBatch(5, []ReadReq{{DS: 3, Idx: 77, Size: 4096}})
	if f.Op != OpReadEpochBatch || len(f.Payload) != 4+readReqSize {
		t.Fatalf("frame = %+v", f)
	}
	reqs, err := DecodeReadEpochBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0] != (ReadReq{DS: 3, Idx: 77, Size: 4096}) {
		t.Fatalf("reqs = %+v", reqs)
	}
	if _, err := DecodeReadEpochBatch([]byte{1, 2}); err == nil {
		t.Fatal("short payload should fail")
	}
}

// TestWriteReqCodec pins a full-object compact write tuple: it round
// trips, and a truncated or padded payload is rejected.
func TestWriteReqCodec(t *testing.T) {
	data := []byte{9, 8, 7, 6}
	f, err := EncodeWriteBatchCPooled(4, []WriteReqC{{DS: 1, Idx: 2, Scheme: SchemeRaw, RawLen: 4, Data: data}}, false)
	if err != nil {
		t.Fatal(err)
	}
	reqs, _, err := DecodeWriteBatchCInto(f.Payload, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].DS != 1 || reqs[0].Idx != 2 || !bytes.Equal(reqs[0].Data, data) {
		t.Fatalf("reqs = %+v", reqs)
	}
	if _, _, err := DecodeWriteBatchCInto(f.Payload[:len(f.Payload)-1], nil, nil, false); err == nil {
		t.Fatal("truncated payload should fail")
	}
	bad := append(append([]byte(nil), f.Payload...), 0xEE)
	if _, _, err := DecodeWriteBatchCInto(bad, nil, nil, false); err == nil {
		t.Fatal("trailing garbage should fail")
	}
}

func TestOpStrings(t *testing.T) {
	for _, op := range allOps {
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("missing name for op %d", op)
		}
	}
	if len(allOps) != 13 {
		t.Errorf("protocol defines %d opcodes, want 13", len(allOps))
	}
	if !strings.HasPrefix(Op(99).String(), "op(") {
		t.Error("unknown op should fall back")
	}
	// The verbs of the version-1 protocol are gone: their opcodes must
	// decode as unknown so a peer's server rejects them.
	for _, op := range deletedOps {
		if !strings.HasPrefix(op.String(), "op(") {
			t.Errorf("deleted opcode %d still named %s", uint8(op), op)
		}
	}
}

// allOps is every opcode of the protocol.
var allOps = []Op{
	OpPing, OpOK, OpErr, OpErrTag,
	OpReadEpochBatch, OpDataEpochBatch, OpChaseBatch, OpChaseData,
	OpReadBatchC, OpDataBatchC, OpWriteBatchC, OpWriteEpochBatchC, OpAckBatchC,
}

// deletedOps are the opcode values of the version-1 verbs (READ, WRITE,
// DATA, READBATCH, DATABATCH, WRITETAG, ACKTAG, WRITEBATCH, ACKBATCH,
// WRITEEPOCHBATCH); a version-2 peer treats them as unexpected.
var deletedOps = []Op{1, 2, 4, TagBit | 0x01, TagBit | 0x02, TagBit | 0x03, TagBit | 0x04,
	TagBit | 0x06, TagBit | 0x07, TagBit | 0x08}

// Property: arbitrary full-object writes roundtrip through frame +
// compact codec.
func TestWriteCodecProperty(t *testing.T) {
	f := func(ds, idx uint32, data []byte) bool {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		fr, err := EncodeWriteBatchCPooled(1, []WriteReqC{{DS: ds, Idx: idx, Scheme: SchemeRaw,
			RawLen: uint32(len(data)), Data: data}}, false)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if WriteFrameCRC(&buf, fr) != nil {
			return false
		}
		PutBuf(fr.Payload)
		got, err := ReadFrameCRC(&buf)
		if err != nil {
			return false
		}
		reqs, _, err := DecodeWriteBatchCInto(got.Payload, nil, nil, false)
		if err != nil || len(reqs) != 1 {
			return false
		}
		r := reqs[0]
		return r.DS == ds && r.Idx == idx && bytes.Equal(r.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
