package rdma

import (
	"bytes"
	"errors"
	"testing"
)

func TestCRCRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: OpPing},
		{Op: OpErr, Payload: []byte{1, 2, 3}},
		{Op: OpReadBatchC, Tag: 99, Payload: []byte{4, 5}},
		{Op: OpAckBatchC, Tag: 7},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrameCRC(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrameCRC(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != want.Op || got.Tag != want.Tag || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	f := Frame{Op: OpWriteBatchC, Tag: 3, Payload: bytes.Repeat([]byte{0xAA}, 64)}
	var clean bytes.Buffer
	if err := WriteFrameCRC(&clean, f); err != nil {
		t.Fatal(err)
	}
	wire := clean.Bytes()
	// Flip each byte after the length prefix in turn: every flip must be
	// caught (payload, opcode, tag, and the trailer itself).
	for pos := 4; pos < len(wire); pos++ {
		bad := make([]byte, len(wire))
		copy(bad, wire)
		bad[pos] ^= 0x10
		_, err := ReadFrameCRC(bytes.NewReader(bad))
		if !errors.Is(err, ErrCRC) {
			t.Fatalf("flip at %d: err = %v, want ErrCRC", pos, err)
		}
	}
}

func TestCRCDetectsTruncatedTrailer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameCRC(&buf, Frame{Op: OpOK}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	if _, err := ReadFrameCRC(bytes.NewReader(wire[:len(wire)-2])); err == nil {
		t.Fatal("truncated trailer should fail")
	}
}
