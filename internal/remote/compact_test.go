package remote

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/testutil"
)

// compressible returns n bytes with heavy repetition (LZ shrinks it).
func compressible(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i / 16 % 7)
	}
	return b
}

func incompressible(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestCompactSessionRoundTrip(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	reg := obs.NewRegistry()
	srv, cl := startPipelined(t, PipelineOpts{Obs: reg})

	objs := map[[2]int][]byte{
		{1, 0}: compressible(512),
		{1, 1}: incompressible(512, 42),
		{1, 2}: make([]byte, 256), // all-zero: SchemeZero both directions
		{2, 9}: compressible(4096),
	}
	for k, v := range objs {
		if err := cl.WriteObj(k[0], k[1], v); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range objs {
		got := make([]byte, len(v))
		if err := cl.ReadObj(k[0], k[1], got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("roundtrip mismatch for %v", k)
		}
		// The server stored the decompressed image, not the wire form.
		if stored := srv.Store.Read(uint32(k[0]), uint32(k[1]), uint32(len(v))); !bytes.Equal(stored, v) {
			t.Fatalf("server stored corrupted bytes for %v", k)
		}
	}

	// The session actually rode the compact verbs.
	snap := reg.Snapshot()
	for _, verb := range []string{"WRITEBATCH-C", "READBATCH-C", "DATABATCH-C", "ACKBATCH-C"} {
		if v := snap.Counter(MetricWireBytes, "verb", verb); v == 0 {
			t.Fatalf("no wire bytes recorded for %s", verb)
		}
	}
}

// TestCompactCompressionShrinksWire scans the same objects over a
// compact+compression session and a compact-but-raw session: the
// compressed session must ship strictly fewer reply bytes for
// compressible data, and the adaptive policy must stop attempting
// compression for a DS that never shrinks.
func TestCompactCompressionShrinksWire(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n, size = 64, 1024
	for i := 0; i < n; i++ {
		srv.Store.Write(1, uint32(i), compressible(size))
	}

	scan := func(opts PipelineOpts) uint64 {
		reg := obs.NewRegistry()
		opts.Obs = reg
		cl, err := DialPipelined(addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			if err := cl.ReadObj(1, i, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, compressible(size)) {
				t.Fatalf("scan mismatch at %d", i)
			}
		}
		return reg.Snapshot().Counter(MetricWireBytes, "verb", "DATABATCH-C")
	}

	withLZ := scan(PipelineOpts{})
	raw := scan(PipelineOpts{Compression: "off"})
	if withLZ == 0 || raw == 0 {
		t.Fatalf("scans did not ride DATABATCH-C: lz=%d raw=%d", withLZ, raw)
	}
	if withLZ*2 >= raw {
		t.Fatalf("compression saved too little on compressible data: lz=%d raw=%d", withLZ, raw)
	}
}

func TestCompressPolicyAdapts(t *testing.T) {
	var p compressPolicy
	// Unseen: always probe.
	if !p.shouldCompress(7) {
		t.Fatal("unseen DS should attempt compression")
	}
	// Feed incompressible outcomes until the EWMA crosses the threshold.
	for i := 0; i < 64; i++ {
		p.observe(7, 1000, 1000)
	}
	attempts := 0
	const trials = 3 * probePeriod
	for i := 0; i < trials; i++ {
		if p.shouldCompress(7) {
			attempts++
			p.observe(7, 1000, 1000)
		}
	}
	if attempts == 0 {
		t.Fatal("policy must keep probing an incompressible DS")
	}
	if attempts > trials/probePeriod+1 {
		t.Fatalf("policy attempted %d of %d on an incompressible DS", attempts, trials)
	}
	// A compressible streak flips it back on.
	for i := 0; i < 64; i++ {
		p.observe(7, 1000, 300)
	}
	if !p.shouldCompress(7) {
		t.Fatal("policy must resume compressing once the data shrinks again")
	}
}

// TestCompactRangeWriteRMW exercises the dirty-range sub-encoding end
// to end: only the extents' bytes ship, the server splices them into
// the stored image, and untouched bytes survive.
func TestCompactRangeWriteRMW(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv, cl := startPipelined(t, PipelineOpts{})

	base := incompressible(1024, 7)
	if err := cl.WriteObj(3, 5, base); err != nil {
		t.Fatal(err)
	}
	// Mutate two disjoint ranges of a private copy, then ship only them.
	img := append([]byte(nil), base...)
	copy(img[64:96], bytes.Repeat([]byte{0xEE}, 32))
	copy(img[900:908], []byte("rangewrb"))
	exts := []rdma.Extent{{Off: 64, Len: 32}, {Off: 900, Len: 8}}
	errCh := make(chan error, 1)
	cl.IssueWriteRanges(3, 5, img, exts, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := srv.Store.Read(3, 5, 1024); !bytes.Equal(got, img) {
		t.Fatal("range write did not splice correctly")
	}

	// Range write to an absent object: the base is all zeros.
	sparse := make([]byte, 512)
	copy(sparse[100:116], bytes.Repeat([]byte{0xAB}, 16))
	cl.IssueWriteRanges(3, 6, sparse, []rdma.Extent{{Off: 100, Len: 16}}, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := srv.Store.Read(3, 6, 512); !bytes.Equal(got, sparse) {
		t.Fatal("range write onto an absent object must splice into zeros")
	}

	// Degenerate range sets fall back to a full write transparently.
	full := incompressible(256, 9)
	cl.IssueWriteRanges(3, 7, full, []rdma.Extent{{Off: 0, Len: 256}}, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := srv.Store.Read(3, 7, 256); !bytes.Equal(got, full) {
		t.Fatal("full-coverage range set must still land")
	}
}

// TestCompactRangeWriteEpoch verifies the conditional-apply contract of
// epoch-stamped range writes: predecessor base applies, replay is
// idempotent, an epoch gap rejects with ErrStaleRangeBase, and an
// obsolete tuple is dropped with a positive ack.
func TestCompactRangeWriteEpoch(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv, cl := startPipelined(t, PipelineOpts{})

	base := compressible(512)
	if err := cl.WriteObjEpoch(4, 1, 1, base); err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), base...)
	copy(img[10:20], bytes.Repeat([]byte{0x5A}, 10))
	exts := []rdma.Extent{{Off: 10, Len: 10}}
	errCh := make(chan error, 1)

	//

	// Epoch 3 against a base at epoch 1: a missed epoch, must reject.
	cl.IssueWriteRangesEpoch(4, 1, 3, img, exts, func(err error) { errCh <- err })
	if err := <-errCh; !errors.Is(err, ErrStaleRangeBase) {
		t.Fatalf("stale-base range write returned %v, want ErrStaleRangeBase", err)
	}
	if got := srv.Store.Read(4, 1, 512); !bytes.Equal(got, base) {
		t.Fatal("rejected range write must not touch the stored image")
	}

	// Epoch 2 against epoch 1: the fresh case.
	cl.IssueWriteRangesEpoch(4, 1, 2, img, exts, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := srv.Store.Read(4, 1, 512); !bytes.Equal(got, img) {
		t.Fatal("fresh epoch range write must splice")
	}
	if ep := srv.Store.Epoch(4, 1); ep != 2 {
		t.Fatalf("stored epoch = %d, want 2", ep)
	}

	// Replaying epoch 2 (the uncertain-ack reissue) is a positive no-op.
	cl.IssueWriteRangesEpoch(4, 1, 2, img, exts, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatalf("idempotent replay must ack positively, got %v", err)
	}

	// An obsolete epoch (stored moved ahead) is dropped, ack positive.
	newer := append([]byte(nil), img...)
	newer[0] = 0xFF
	if err := cl.WriteObjEpoch(4, 1, 5, newer); err != nil {
		t.Fatal(err)
	}
	cl.IssueWriteRangesEpoch(4, 1, 2, img, exts, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatalf("obsolete range write must be dropped with a positive ack, got %v", err)
	}
	if got := srv.Store.Read(4, 1, 512); !bytes.Equal(got, newer) {
		t.Fatal("obsolete range write must not clobber the newer image")
	}
}
