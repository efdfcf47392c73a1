package rdma

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func TestChaseReqValidate(t *testing.T) {
	good := ChaseReq{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 16}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	cases := []struct {
		name string
		req  ChaseReq
		want string
	}{
		{"zero hop budget", ChaseReq{ObjSize: 64, NextOff: 8}, "hop budget 0"},
		{"zero object size", ChaseReq{NextOff: 0, Hops: 4}, "object size 0"},
		{"non-pow2 object size", ChaseReq{ObjSize: 48, NextOff: 8, Hops: 4}, "not a power of two"},
		{"offset past end", ChaseReq{ObjSize: 64, NextOff: 60, Hops: 4}, "past object end"},
		{"offset at end", ChaseReq{ObjSize: 64, NextOff: 64, Hops: 4}, "past object end"},
		{"mask on huge objects", ChaseReq{ObjSize: 1024, NextOff: 0, Hops: 4, Mask: 1}, "mask"},
	}
	for _, c := range cases {
		err := c.req.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Unfiltered huge objects are fine — only the mask has a span limit.
	if err := (ChaseReq{ObjSize: 1024, NextOff: 0, Hops: 4}).Validate(); err != nil {
		t.Errorf("unfiltered 1KiB program rejected: %v", err)
	}
}

func TestChaseBatchRoundTrip(t *testing.T) {
	reqs := []ChaseReq{
		{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 16},
		{DS: 7, Start: 1023, ObjSize: 256, NextOff: 248, Hops: 1, Mask: 0x8001},
		{DS: 0x7FFF, Start: 1 << 30, ObjSize: 8, NextOff: 0, Hops: 1 << 20, Mask: ^uint64(0)},
	}
	fr := EncodeChaseBatch(42, reqs)
	if fr.Op != OpChaseBatch || fr.Tag != 42 {
		t.Fatalf("frame header: op %v tag %d", fr.Op, fr.Tag)
	}
	if len(fr.Payload) != ChaseBatchSize(reqs) {
		t.Fatalf("payload %d bytes, ChaseBatchSize says %d", len(fr.Payload), ChaseBatchSize(reqs))
	}
	got, err := DecodeChaseBatch(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d programs, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Errorf("program %d: %+v != %+v", i, got[i], reqs[i])
		}
	}

	// Framing rejections: torn header, count/length mismatch both ways.
	if _, err := DecodeChaseBatch(fr.Payload[:3]); err == nil {
		t.Error("torn header accepted")
	}
	if _, err := DecodeChaseBatch(fr.Payload[:len(fr.Payload)-1]); err == nil {
		t.Error("truncated tuple accepted")
	}
	forged := append([]byte(nil), fr.Payload...)
	binary.LittleEndian.PutUint32(forged, uint32(len(reqs)+1))
	if _, err := DecodeChaseBatch(forged); err == nil {
		t.Error("forged count accepted")
	}
}

func TestChaseDataRoundTrip(t *testing.T) {
	results := []ChaseResult{
		{Status: ChaseDone, Final: 0xDEAD, Hops: []ChaseHop{
			{Idx: 0, Data: bytes.Repeat([]byte{0x11}, 64)},
			{Idx: 9, Data: bytes.Repeat([]byte{0x22}, 64)},
		}},
		{Status: ChaseHops, Final: chaseAddrTagBit | 3<<chaseAddrDSShift | 512, Hops: []ChaseHop{
			{Idx: 4, Data: bytes.Repeat([]byte{0x33}, 16)},
		}},
		{Status: ChaseDone, Final: 0, Hops: nil}, // empty path: start was terminal
	}
	fr, err := EncodeChaseData(7, results)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Op != OpChaseData || fr.Tag != 7 {
		t.Fatalf("frame header: op %v tag %d", fr.Op, fr.Tag)
	}
	got, err := DecodeChaseData(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(results) {
		t.Fatalf("decoded %d results, want %d", len(got), len(results))
	}
	for i, r := range results {
		g := got[i]
		if g.Status != r.Status || g.Final != r.Final || len(g.Hops) != len(r.Hops) {
			t.Fatalf("result %d: %+v != %+v", i, g, r)
		}
		for h := range r.Hops {
			if g.Hops[h].Idx != r.Hops[h].Idx || !bytes.Equal(g.Hops[h].Data, r.Hops[h].Data) {
				t.Errorf("result %d hop %d mismatch", i, h)
			}
		}
	}
}

func TestChaseDataWriterBackpatch(t *testing.T) {
	// Drive the writer the way the server does — hop count unknown until
	// the walk ends — and check the backpatched headers read back right.
	reqs := []ChaseReq{{DS: 1, ObjSize: 32, NextOff: 24, Hops: 4}}
	p := make([]byte, ChaseReplyBound(reqs))
	w := BeginChaseData(p, 1)
	w.BeginResult()
	for i := 0; i < 3; i++ {
		hop := w.NextHop(uint32(10+i), 32)
		for j := range hop {
			hop[j] = byte(i)
		}
	}
	w.FinishResult(ChaseHops, chaseAddrTagBit|42)
	fr := w.Frame(5)

	res, err := DecodeChaseData(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Status != ChaseHops || res[0].Final != chaseAddrTagBit|42 {
		t.Fatalf("backpatched header wrong: %+v", res[0])
	}
	if len(res[0].Hops) != 3 {
		t.Fatalf("hop count %d, want 3", len(res[0].Hops))
	}
	for i, h := range res[0].Hops {
		if h.Idx != uint32(10+i) || len(h.Data) != 32 || h.Data[0] != byte(i) {
			t.Errorf("hop %d: idx %d len %d first %d", i, h.Idx, len(h.Data), h.Data[0])
		}
	}
}

func TestChaseDataDecodeRejections(t *testing.T) {
	fr, err := EncodeChaseData(1, []ChaseResult{
		{Status: ChaseDone, Final: 1, Hops: []ChaseHop{{Idx: 2, Data: []byte("eight by")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	valid := fr.Payload

	if _, err := DecodeChaseData(valid[:2]); err == nil {
		t.Error("torn header accepted")
	}
	forged := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(forged, 1<<30) // forged result count
	if _, err := DecodeChaseData(forged); err == nil {
		t.Error("forged result count accepted")
	}
	forged = append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(forged[16:], 1<<30) // forged hop count
	if _, err := DecodeChaseData(forged); err == nil {
		t.Error("forged hop count accepted")
	}
	if _, err := DecodeChaseData(valid[:len(valid)-3]); err == nil {
		t.Error("truncated hop bytes accepted")
	}
	if _, err := DecodeChaseData(append(append([]byte(nil), valid...), 0xEE)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestChaseReplyBoundNoOverflow(t *testing.T) {
	// A forged max hop budget over max-size objects must not wrap the
	// bound check into accepting the batch.
	reqs := []ChaseReq{{Hops: ^uint32(0), ObjSize: ^uint32(0)}}
	if b := ChaseReplyBound(reqs); b <= MaxFrame {
		t.Fatalf("forged budget bound %d passed the MaxFrame check", b)
	}
}

func TestChaseAddrHelpers(t *testing.T) {
	a := chaseAddrTagBit | uint64(0x1234)<<chaseAddrDSShift | 0xABCDE
	if !ChaseAddrTagged(a) {
		t.Error("tagged address not recognized")
	}
	if ChaseAddrTagged(a &^ chaseAddrTagBit) {
		t.Error("untagged word recognized as tagged")
	}
	if ds := ChaseAddrDS(a); ds != 0x1234 {
		t.Errorf("ds = %#x, want 0x1234", ds)
	}
	if off := ChaseAddrOff(a); off != 0xABCDE {
		t.Errorf("off = %#x, want 0xabcde", off)
	}
}

// TestChasePathSteadyStateAllocFree pins the zero-allocation property of
// the chase codec, mirroring the READBATCH guard: client program encode,
// checksummed framing, server decode + in-place CHASEDATA gather via the
// writer, client result decode into reused slices — none of it may touch
// the heap once warm.
func TestChasePathSteadyStateAllocFree(t *testing.T) {
	reqs := []ChaseReq{
		{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 8},
		{DS: 2, Start: 5, ObjSize: 64, NextOff: 8, Hops: 4},
	}
	obj := bytes.Repeat([]byte{0xCD}, 64)

	var c2s, s2c bytes.Buffer
	var rd bytes.Reader
	decReqs := make([]ChaseReq, 0, len(reqs))
	res := make([]ChaseResult, 0, len(reqs))
	for range reqs {
		res = append(res, ChaseResult{Hops: make([]ChaseHop, 0, 8)})
	}
	res = res[:0]

	iter := func() {
		// Client: ship the programs.
		req := EncodeChaseBatchPooled(42, reqs)
		c2s.Reset()
		if err := WriteFrameCRC(&c2s, req); err != nil {
			t.Fatal(err)
		}
		PutBuf(req.Payload)

		// Server: decode, walk (simulated), gather in place.
		rd.Reset(c2s.Bytes())
		fr, err := ReadFramePooled(&rd, false)
		if err != nil {
			t.Fatal(err)
		}
		decReqs, err = DecodeChaseBatchInto(fr.Payload, decReqs)
		if err != nil {
			t.Fatal(err)
		}
		reply := GetBuf(int(ChaseReplyBound(decReqs)))
		w := BeginChaseData(reply, len(decReqs))
		for _, r := range decReqs {
			w.BeginResult()
			for h := uint32(0); h < r.Hops/2; h++ {
				copy(w.NextHop(r.Start+h, int(r.ObjSize)), obj)
			}
			w.FinishResult(ChaseDone, 0)
		}
		PutBuf(fr.Payload)
		s2c.Reset()
		if err := WriteFrameCRC(&s2c, w.Frame(fr.Tag)); err != nil {
			t.Fatal(err)
		}
		PutBuf(reply)

		// Client: decode the paths into reused result slices.
		rd.Reset(s2c.Bytes())
		fr, err = ReadFramePooled(&rd, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err = DecodeChaseDataInto(fr.Payload, res)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(reqs) || len(res[0].Hops) != 4 || len(res[0].Hops[0].Data) != 64 {
			t.Fatalf("bad reply: %d results", len(res))
		}
		PutBuf(fr.Payload)
	}

	for i := 0; i < 8; i++ {
		iter()
	}
	if avg := testing.AllocsPerRun(200, iter); avg >= 1 {
		t.Fatalf("steady-state chase path allocates %.2f times per round trip, want ~0", avg)
	}
}
