package rdma

import (
	"bytes"
	"testing"
)

// readRoundTrip is one compression-off read round trip over the compact
// frames — the path every session without FeatCompress takes: the
// client encodes a READBATCH-C, the server decodes it and gathers the
// reply in place through a reused DataBatchCBuilder in the
// reserved-header layout (Begin), and the client decodes the
// DATABATCH-C segments. trace stamps the span context on the request
// and the server timing on the reply, as a FeatTrace session does.
func readRoundTrip(t *testing.T, trace bool) func() {
	reqs := []ReadReq{
		{DS: 1, Idx: 0, Size: 256},
		{DS: 1, Idx: 1, Size: 256},
		{DS: 2, Idx: 7, Size: 64},
	}
	obj := bytes.Repeat([]byte{0xCD}, 256)

	var c2s, s2c bytes.Buffer // wire bytes, one buffer per direction
	var rd bytes.Reader
	decReqs := make([]ReadReq, 0, len(reqs))
	segs := make([]DataSegC, 0, len(reqs))
	var b DataBatchCBuilder
	t.Cleanup(b.Release)

	return func() {
		// Client: issue a READBATCH-C.
		req := EncodeReadBatchCPooled(42, reqs)
		if trace {
			req.SetTraceCtx(0xA11CE, 0xB0B, true)
		}
		c2s.Reset()
		if err := WriteFrameCRC(&c2s, req); err != nil {
			t.Fatal(err)
		}
		PutBuf(req.Payload)

		// Server: decode the batch and gather the reply in place.
		rd.Reset(c2s.Bytes())
		fr, err := ReadFramePooled(&rd, trace)
		if err != nil {
			t.Fatal(err)
		}
		if id, _, sampled := fr.TraceCtx(); trace && (id != 0xA11CE || !sampled) {
			t.Fatalf("trace ctx lost on the wire: id %#x sampled %v", id, sampled)
		}
		decReqs, err = DecodeReadBatchCInto(fr.Payload, decReqs)
		if err != nil {
			t.Fatal(err)
		}
		b.Reset()
		b.Begin(decReqs)
		for _, r := range decReqs {
			s := b.Stage(int(r.Size))
			copy(s, obj)
			b.Add(s, false)
		}
		PutBuf(fr.Payload)
		out, err := b.Frame(fr.Tag)
		if err != nil {
			t.Fatal(err)
		}
		if trace {
			out.SetServerStamp(123456, 3, 17)
		}
		s2c.Reset()
		if err := WriteFrameCRC(&s2c, out); err != nil {
			t.Fatal(err)
		}
		PutBuf(out.Payload)

		// Client: decode the reply segments.
		rd.Reset(s2c.Bytes())
		fr, err = ReadFramePooled(&rd, trace)
		if err != nil {
			t.Fatal(err)
		}
		if _, q, sv := fr.ServerStamp(); trace && (q != 3 || sv != 17) {
			t.Fatalf("server stamp lost on the wire: queue %d service %d", q, sv)
		}
		segs, err = DecodeDataBatchCInto(fr.Payload, segs)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != len(reqs) || segs[0].Scheme != SchemeRaw || len(segs[0].Data) != 256 {
			t.Fatalf("bad reply: %d segments", len(segs))
		}
		PutBuf(fr.Payload)
	}
}

// TestReadPathSteadyStateAllocFree pins the zero-allocation property of
// the pooled data path: once the frame buffer pool and wire buffers are
// warm, a full compression-off read round trip (readRoundTrip) with
// checksummed framing both ways must not touch the heap. A regression
// here puts the GC back on the per-frame critical path, which is
// exactly the bandwidth tax the pool exists to remove.
func TestReadPathSteadyStateAllocFree(t *testing.T) {
	iter := readRoundTrip(t, false)
	// Warm the size-class free lists and grow the wire buffers before
	// measuring — first-use allocations are expected and amortized.
	for i := 0; i < 8; i++ {
		iter()
	}
	if avg := testing.AllocsPerRun(200, iter); avg >= 1 {
		t.Fatalf("steady-state read path allocates %.2f times per round trip, want ~0", avg)
	}
}

// TestTracedReadPathSteadyStateAllocFree is the same guard for a
// FeatTrace session: the fixed 20-byte trace block — span context on
// the request, server stamp on the reply — must ride every tagged frame
// without putting the heap back on the critical path. Tracing is always
// on once negotiated (sampling only gates span *emission*), so an
// allocation here taxes every op, not just the sampled ones.
func TestTracedReadPathSteadyStateAllocFree(t *testing.T) {
	iter := readRoundTrip(t, true)
	for i := 0; i < 8; i++ {
		iter()
	}
	if avg := testing.AllocsPerRun(200, iter); avg >= 1 {
		t.Fatalf("steady-state traced read path allocates %.2f times per round trip, want ~0", avg)
	}
}

// TestCompactReadPathSteadyStateAllocFree pins the zero-allocation
// property of the compressing read path: delta-encoded READBATCH-C,
// server-side gather through a reused DataBatchCBuilder (including the
// LZ compression pass and its pooled hash table), and client-side
// segment decode + decompression into a caller buffer. Compression must
// not put the heap back on the per-frame critical path.
func TestCompactReadPathSteadyStateAllocFree(t *testing.T) {
	reqs := []ReadReq{
		{DS: 1, Idx: 10, Size: 256},
		{DS: 1, Idx: 11, Size: 256},
		{DS: 2, Idx: 7, Size: 256},
	}
	objs := [][]byte{
		bytes.Repeat([]byte{0xCD}, 256),              // compressible
		make([]byte, 256),                            // zero
		bytes.Repeat([]byte("ab4kZ!dDqR91_xw."), 16), // mildly compressible
	}

	var c2s, s2c bytes.Buffer
	var rd bytes.Reader
	decReqs := make([]ReadReq, 0, len(reqs))
	segs := make([]DataSegC, 0, len(reqs))
	dst := make([]byte, 256)
	var b DataBatchCBuilder
	defer b.Release()

	iter := func() {
		// Client: issue a compact READBATCH.
		req := EncodeReadBatchCPooled(42, reqs)
		c2s.Reset()
		if err := WriteFrameCRC(&c2s, req); err != nil {
			t.Fatal(err)
		}
		PutBuf(req.Payload)

		// Server: decode, stage each object, compress adaptively.
		rd.Reset(c2s.Bytes())
		fr, err := ReadFramePooled(&rd, false)
		if err != nil {
			t.Fatal(err)
		}
		var derr error
		decReqs, derr = DecodeReadBatchCInto(fr.Payload, decReqs)
		if derr != nil {
			t.Fatal(derr)
		}
		b.Reset()
		for i, r := range decReqs {
			s := b.Stage(int(r.Size))
			copy(s, objs[i])
			b.Add(s, true)
		}
		PutBuf(fr.Payload)
		out, err := b.Frame(fr.Tag)
		if err != nil {
			t.Fatal(err)
		}
		s2c.Reset()
		if err := WriteFrameCRC(&s2c, out); err != nil {
			t.Fatal(err)
		}
		PutBuf(out.Payload)

		// Client: decode the reply, materializing each object.
		rd.Reset(s2c.Bytes())
		fr, err = ReadFramePooled(&rd, false)
		if err != nil {
			t.Fatal(err)
		}
		segs, derr = DecodeDataBatchCInto(fr.Payload, segs)
		if derr != nil {
			t.Fatal(derr)
		}
		if len(segs) != len(reqs) {
			t.Fatalf("bad reply: %d segments", len(segs))
		}
		for i, s := range segs {
			d := dst[:s.RawLen]
			switch s.Scheme {
			case SchemeZero:
				clear(d)
			case SchemeRaw:
				copy(d, s.Data)
			case SchemeLZ:
				if err := LZDecompress(d, s.Data); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(d, objs[i]) {
				t.Fatalf("segment %d corrupted", i)
			}
		}
		PutBuf(fr.Payload)
	}

	for i := 0; i < 8; i++ {
		iter()
	}
	if avg := testing.AllocsPerRun(200, iter); avg >= 1 {
		t.Fatalf("steady-state compact read path allocates %.2f times per round trip, want ~0", avg)
	}
}

// TestRangeWritePathSteadyStateAllocFree pins the zero-allocation
// property of the dirty-range write-back path: the client compresses
// extent bytes through pooled scratch, encodes a WRITEEPOCHBATCH-C
// with range tuples, and the server decodes into reused scratch and
// applies the ranges read-modify-write. This is the steady-state
// eviction path of a replicated far tier — one allocation here taxes every
// dirty write-back.
func TestRangeWritePathSteadyStateAllocFree(t *testing.T) {
	const objSize = 1024
	stored := make([]byte, objSize)
	extBytes := bytes.Repeat([]byte{0x42}, 96)
	exts := []Extent{{Off: 16, Len: 32}, {Off: 256, Len: 64}}

	var c2s, s2c bytes.Buffer
	var rd bytes.Reader
	reqsC := make([]WriteReqC, 2)
	decReqs := make([]WriteReqC, 0, 2)
	decExts := make([]Extent, 0, 8)
	ackScratch := make([]uint64, 0, 1)
	epoch := uint64(1)

	iter := func() {
		epoch++
		// Client: one range tuple (compressed through pooled scratch
		// when it pays) and one full-object zero tuple.
		scratch := GetBuf(CompressBound(len(extBytes)))
		data := extBytes
		scheme := SchemeRaw
		if n, ok := LZCompress(scratch, extBytes); ok && n < len(extBytes) {
			data = scratch[:n]
			scheme = SchemeLZ
		}
		reqsC[0] = WriteReqC{DS: 1, Idx: 3, Epoch: epoch, ObjSize: objSize,
			Extents: exts, Scheme: scheme, RawLen: uint32(len(extBytes)), Data: data}
		reqsC[1] = WriteReqC{DS: 1, Idx: 4, Epoch: epoch, Scheme: SchemeZero, RawLen: objSize}
		fr, err := EncodeWriteBatchCPooled(7, reqsC, true)
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(scratch)
		c2s.Reset()
		if err := WriteFrameCRC(&c2s, fr); err != nil {
			t.Fatal(err)
		}
		PutBuf(fr.Payload)

		// Server: decode and apply read-modify-write.
		rd.Reset(c2s.Bytes())
		in, err := ReadFramePooled(&rd, false)
		if err != nil {
			t.Fatal(err)
		}
		var derr error
		decReqs, decExts, derr = DecodeWriteBatchCInto(in.Payload, decReqs, decExts, true)
		if derr != nil {
			t.Fatal(derr)
		}
		for i := range decReqs {
			r := &decReqs[i]
			if r.Extents == nil {
				continue
			}
			raw := GetBuf(int(r.RawLen))
			switch r.Scheme {
			case SchemeRaw:
				copy(raw, r.Data)
			case SchemeLZ:
				if err := LZDecompress(raw, r.Data); err != nil {
					t.Fatal(err)
				}
			}
			off := 0
			for _, e := range r.Extents {
				copy(stored[e.Off:e.Off+e.Len], raw[off:])
				off += int(e.Len)
			}
			PutBuf(raw)
		}
		PutBuf(in.Payload)
		ack := EncodeAckBatchC(in.Tag, len(decReqs), nil)
		s2c.Reset()
		if err := WriteFrameCRC(&s2c, ack); err != nil {
			t.Fatal(err)
		}
		PutBuf(ack.Payload)

		// Client: decode the ack.
		rd.Reset(s2c.Bytes())
		in, err = ReadFramePooled(&rd, false)
		if err != nil {
			t.Fatal(err)
		}
		count, rej, any, derr2 := DecodeAckBatchC(in.Payload, ackScratch)
		if derr2 != nil || count != 2 || any {
			t.Fatalf("ack: count=%d any=%v err=%v", count, any, derr2)
		}
		ackScratch = rej
		PutBuf(in.Payload)
	}

	for i := 0; i < 8; i++ {
		iter()
	}
	if avg := testing.AllocsPerRun(200, iter); avg >= 1 {
		t.Fatalf("steady-state range-write path allocates %.2f times per round trip, want ~0", avg)
	}
	if !bytes.Equal(stored[16:48], extBytes[:32]) || !bytes.Equal(stored[256:320], extBytes[32:96]) {
		t.Fatalf("range apply corrupted the object")
	}
}
