package rdma

import (
	"bufio"
	"bytes"
	"testing"
)

// recordingWriter keeps a copy of every Write call's bytes plus the
// address of its first byte, so a test can see both the call shape and
// whether a slice went out by reference.
type recordingWriter struct {
	calls [][]byte
	addrs []*byte
	all   bytes.Buffer
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.calls = append(w.calls, append([]byte(nil), p...))
	var a *byte
	if len(p) > 0 {
		a = &p[0]
	}
	w.addrs = append(w.addrs, a)
	w.all.Write(p)
	return len(p), nil
}

// TestFrameWriterStreamMatchesWriteFrameCRC: whatever mix of buffered
// and vectored frames the writer emits, the byte stream is exactly the
// concatenation of WriteFrameCRC encodings, and it reads back frame for
// frame through a buffered ReadFramePooled.
func TestFrameWriterStreamMatchesWriteFrameCRC(t *testing.T) {
	big := bytes.Repeat([]byte{0x5A}, FrameBufSize+1000)
	traced := Frame{Op: OpReadBatchC, Tag: 9, Payload: []byte{1, 2, 3}}
	traced.SetTraceCtx(0xAB, 0xCD, true)
	frames := []Frame{
		{Op: OpAckBatchC, Tag: 1, Payload: []byte{4}},
		traced,
		{Op: OpDataBatchC, Tag: 2, Payload: big},
		{Op: OpErrTag, Tag: 3, Payload: []byte("no")},
		{Op: OpDataBatchC, Tag: 4, Payload: big[:FrameBufSize-64]},
		{Op: OpAckBatchC, Tag: 5},
	}
	var want bytes.Buffer
	var rw recordingWriter
	var seen uint64
	fw := NewFrameWriter(&rw, func(n uint64) { seen += n })
	for _, f := range frames {
		if err := WriteFrameCRC(&want, f); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rw.all.Bytes(), want.Bytes()) {
		t.Fatalf("frame writer stream (%d B) differs from WriteFrameCRC encoding (%d B)", rw.all.Len(), want.Len())
	}
	if seen != uint64(len(frames)) {
		t.Fatalf("onWrite observed %d frames, want %d", seen, len(frames))
	}
	br := bufio.NewReaderSize(bytes.NewReader(want.Bytes()), FrameBufSize)
	for i, wf := range frames {
		got, err := ReadFramePooled(br, i == 1)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != wf.Op || got.Tag != wf.Tag || !bytes.Equal(got.Payload, wf.Payload) {
			t.Fatalf("frame %d = %s tag %d (%d B), want %s tag %d (%d B)",
				i, got.Op, got.Tag, len(got.Payload), wf.Op, wf.Tag, len(wf.Payload))
		}
		if i == 1 {
			if id, span, sampled := got.TraceCtx(); id != 0xAB || span != 0xCD || !sampled {
				t.Fatalf("trace block lost: %#x %#x %v", id, span, sampled)
			}
		}
		PutBuf(got.Payload)
	}
}

// TestFrameWriterCoalescesSmallFrames: small frames cost no write until
// Flush, which sends them all in one call.
func TestFrameWriterCoalescesSmallFrames(t *testing.T) {
	var rw recordingWriter
	var writes []uint64
	fw := NewFrameWriter(&rw, func(n uint64) { writes = append(writes, n) })
	for tag := uint32(1); tag <= 10; tag++ {
		if err := fw.WriteFrame(Frame{Op: OpAckBatchC, Tag: tag, Payload: []byte{1, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(rw.calls) != 0 || len(fw.buf) == 0 {
		t.Fatalf("small frames hit the writer before Flush: %d calls, %d B buffered", len(rw.calls), len(fw.buf))
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rw.calls) != 1 || len(writes) != 1 || writes[0] != 10 {
		t.Fatalf("flush of 10 frames: %d write calls, frames per write %v; want 1 call of 10", len(rw.calls), writes)
	}
	if err := fw.Flush(); err != nil || len(rw.calls) != 1 {
		t.Fatalf("empty flush wrote (%d calls, err %v)", len(rw.calls), err)
	}
}

// TestFrameWriterLargeFrameByReference: a frame that does not fit in
// the buffer goes out in one vectored write together with what was
// buffered, its payload passed by reference (never copied through the
// buffer) and dropped by the writer before WriteFrame returns.
func TestFrameWriterLargeFrameByReference(t *testing.T) {
	var rw recordingWriter
	var writes []uint64
	fw := NewFrameWriter(&rw, func(n uint64) { writes = append(writes, n) })
	if err := fw.WriteFrame(Frame{Op: OpAckBatchC, Tag: 1, Payload: []byte{1, 0}}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC3}, 128<<10)
	if err := fw.WriteFrame(Frame{Op: OpDataBatchC, Tag: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	// A plain io.Writer gets net.Buffers' fallback: one Write per piece —
	// buffered frames, header, payload, trailer — all from one WriteTo.
	if len(rw.calls) != 4 {
		t.Fatalf("large frame took %d write calls, want 4 pieces of one vectored write", len(rw.calls))
	}
	if rw.addrs[2] != &payload[0] || len(rw.calls[2]) != len(payload) {
		t.Fatal("large payload was copied instead of written by reference")
	}
	if len(fw.buf) != 0 || len(writes) != 1 || writes[0] != 2 {
		t.Fatalf("after vectored write: %d B buffered, frames per write %v; want 0 B and [2]", len(fw.buf), writes)
	}
	for i, b := range fw.iov {
		if b != nil {
			t.Fatalf("writer still references piece %d after WriteFrame returned", i)
		}
	}
	if fw.vec != nil {
		t.Fatal("writer still holds the vectored write after WriteFrame returned")
	}
}

// TestFrameWriterRejectsOversizedFrame mirrors WriteFrame's bound.
func TestFrameWriterRejectsOversizedFrame(t *testing.T) {
	var rw recordingWriter
	fw := NewFrameWriter(&rw, nil)
	if err := fw.WriteFrame(Frame{Op: OpDataBatchC, Payload: make([]byte, MaxFrame+1)}); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if len(rw.calls) != 0 || len(fw.buf) != 0 {
		t.Fatal("oversized frame reached the wire")
	}
}
