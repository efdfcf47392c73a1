package cards

// End-to-end fault-tolerance tests: compiled workloads running over a
// real TCP far tier through the chaos proxy (forced disconnects + frame
// corruption), and the circuit-breaker demo — a server killed mid-run,
// degraded service from resident memory, then recovery with a drain of
// the dirty write-backs after the server restarts.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/faultnet"
	"cards/internal/ir"
	"cards/internal/policy"
	"cards/internal/remote"
	"cards/internal/testutil"
	"cards/internal/workloads"
)

// checkGoroutines delegates to the shared leak checker (also applied in
// the remote and faultnet suites).
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	testutil.CheckGoroutines(t, before)
}

// dialChaosPipelined dials through the fault proxy. Under frame
// corruption the version handshake itself can be garbled; that fails
// the attempt like a real version mismatch would, and the dial retries
// under RetryMax.
func dialChaosPipelined(t *testing.T, addr string) *remote.PipelinedClient {
	t.Helper()
	c, err := remote.DialPipelined(addr, remote.PipelineOpts{
		// A short stall timeout keeps corrupted-length frames (server
		// blocked mid-frame, stream wedged) cheap: each one costs one
		// Timeout before the stall detector cuts and replays.
		Timeout:   300 * time.Millisecond,
		RetryMax:  64,
		RetryBase: time.Millisecond,
		RetryCap:  20 * time.Millisecond,
		// Small batches: a coalesced batch response (up to Window*4 KiB
		// in one frame) could exceed every possible cut budget and replay
		// forever; two objects per frame (~8 KiB) always fit the minimum
		// cut draw (cut/2 = 16 KiB).
		Window:   8,
		MaxBatch: 2,
	})
	if err != nil {
		t.Fatalf("dial through the chaos proxy: %v", err)
	}
	return c
}

// TestChaosWorkloadsRunToCompletion is the headline robustness test: the
// compiled BFS and pointer-chase workloads run against a TCP far tier
// reached through the chaos proxy — a connection cut every 16 KiB and 1%
// of forwarded chunks corrupted — and must produce exactly the checksum
// of the in-process run. The transport replays reads across reconnects;
// corrupted frames are caught by the CRC trailer; uncertain writes
// surface to the runtime, whose reissue is safe because full-object
// write-backs are idempotent.
func TestChaosWorkloadsRunToCompletion(t *testing.T) {
	// Each workload carries the cut schedule matched to its traffic
	// volume (BFS pushes ~40x the bytes of the chase), so both rack up
	// well over 50 disconnects without taking minutes.
	cases := map[string]struct {
		spec  string
		build func() (*ir.Module, error)
	}{
		"bfs": {
			spec: "cut=32768,corrupt=0.01,seed=7",
			build: func() (*ir.Module, error) {
				return workloads.BuildBFS(workloads.BFSConfig{
					Vertices: 512, Degree: 6, Trials: 2, Seed: 11}).Module, nil
			},
		},
		"pointer_chase": {
			spec: "cut=8192,corrupt=0.01,seed=7",
			build: func() (*ir.Module, error) {
				w, err := workloads.BuildChase("list", workloads.ChaseConfig{N: 4096, Seed: 9})
				if err != nil {
					return nil, err
				}
				return w.Module, nil
			},
		},
	}
	for name, tc := range cases {
		build := tc.build
		spec := tc.spec
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()

			run := func(store farmem.Store) *core.RunResult {
				m, err := build()
				if err != nil {
					t.Fatal(err)
				}
				c, err := core.Compile(m, core.CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(core.RunConfig{
					Policy:          policy.AllRemotable,
					PinnedBudget:    0,
					RemotableBudget: 8 * 4096, // tiny cache: heavy wire traffic
					Store:           store,
					RetryMax:        8, // reissue uncertain write-backs
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(nil).MainResult // in-process store: the reference checksum

			srv := remote.NewServer()
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fcfg, err := faultnet.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			cl := dialChaosPipelined(t, proxy.Addr())

			res := run(cl)
			if res.MainResult != want {
				t.Errorf("chaos checksum %#x != in-process %#x", res.MainResult, want)
			}
			// The pipelined client is an AsyncWriteStore, so the checksums
			// above were produced with dirty evictions staged off the deref
			// path — the async write-back pipeline is what survived the
			// schedule, not the legacy sync path.
			if res.Runtime.StagedWriteBacks == 0 {
				t.Error("StagedWriteBacks = 0: async write-back path never engaged under chaos")
			}
			cuts, corrupts, conns := proxy.Cuts(), proxy.Corruptions(), proxy.Conns()
			if cuts < 50 {
				t.Errorf("proxy forced %d disconnects, want >= 50 (schedule too gentle for the traffic)", cuts)
			}
			t.Logf("%s survived %d disconnects, %d corrupted chunks across %d connections",
				name, cuts, corrupts, conns)

			cl.Close()
			proxy.Close()
			srv.Close()
			checkGoroutines(t, before)
		})
	}
}

// TestBreakerServerOutageAndRecovery is the degradation demo on the
// public API: kill the far-tier server mid-run, watch the circuit
// breaker trip so resident objects keep serving while remote derefs fail
// fast with ErrDegraded, then restart the server (same store — the far
// tier's contents survive a cardsd restart in spirit) and watch the
// breaker recover, draining the dirty write-backs that accumulated while
// degraded — all visible as obs counters in the /stats snapshot.
func TestBreakerServerOutageAndRecovery(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := remote.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rt, err := New(Config{
		PinnedMemory:     1 << 20,
		RemotableMemory:  2 * 4096, // 2-object cache over an 8-object array
		RemoteAddr:       addr,
		RemoteTimeout:    250 * time.Millisecond,
		RemoteRetries:    1,
		BreakerThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 8 * 512 // 8 objects of 512 int64s
	arr, err := NewArray[int64](rt, "demo", n, Remotable)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := arr.Set(i, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Store.Len() == 0 {
		t.Fatal("no write-backs reached the server before the outage")
	}

	// Kill the server mid-run: listener closed, connections force-cut.
	srv.Drain(20 * time.Millisecond)

	// Remote derefs fail; after BreakerThreshold consecutive failures the
	// breaker opens and they fail fast with ErrDegraded.
	var derr error
	for i := 0; i < 20; i++ {
		if _, derr = arr.Get(0); errors.Is(derr, farmem.ErrDegraded) {
			break
		}
	}
	if !errors.Is(derr, farmem.ErrDegraded) {
		t.Fatalf("remote deref during outage = %v, want ErrDegraded", derr)
	}

	// Resident objects keep serving from local memory while degraded.
	if v, err := arr.Get(n - 1); err != nil || v != int64(1000+n-1) {
		t.Fatalf("resident element during outage = %d, %v", v, err)
	}
	if err := arr.Set(n-1, int64(2000)); err != nil {
		t.Fatalf("resident write during outage: %v", err)
	}

	// Restart the far tier on the same address, same object store. The
	// breaker's background prober notices, arms half-open, and the next
	// deref is the trial that closes the circuit and drains dirty objects.
	srv2 := remote.NewServer()
	srv2.Store = srv.Store
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	var v int64
	for {
		v, err = arr.Get(0)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after server restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v != 1000 {
		t.Fatalf("recovered element 0 = %d, want 1000", v)
	}

	st := rt.rt.Stats()
	if st.BreakerTrips == 0 {
		t.Error("BreakerTrips = 0 after outage")
	}
	if st.BreakerRecoveries == 0 {
		t.Error("BreakerRecoveries = 0 after restart")
	}
	if st.DrainedWriteBacks == 0 {
		t.Error("DrainedWriteBacks = 0: dirty residents were not flushed on recovery")
	}

	// The whole working set survived the outage, including the write made
	// while degraded.
	for i := 0; i < n-1; i++ {
		v, err := arr.Get(i)
		if err != nil {
			t.Fatalf("post-recovery Get(%d): %v", i, err)
		}
		if v != int64(1000+i) {
			t.Fatalf("post-recovery element %d = %d, want %d", i, v, 1000+i)
		}
	}
	if v, _ := arr.Get(n - 1); v != 2000 {
		t.Fatalf("degraded-mode write lost: element %d = %d, want 2000", n-1, v)
	}

	// The breaker counters are on the /stats snapshot cardsd serves.
	var buf bytes.Buffer
	if err := rt.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"cards_farmem_breaker_state",
		"cards_farmem_breaker_trips_total",
		"cards_farmem_breaker_recoveries_total",
		"cards_farmem_drained_writebacks_total",
	} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("metrics snapshot missing %s", metric)
		}
	}

	rt.Close()
	srv2.Close()
	checkGoroutines(t, before)
}

// TestChaosMidFlushDisconnectReplaysStagedWrites cuts the connection
// while WRITEBATCH flushes are on the wire: staged write-backs complete
// with ErrUncertainWrite and the runtime must reissue them from the
// staging snapshots (never the transport — it cannot know whether the
// server applied the batch). Every element reads back exactly through
// the runtime (read-your-writes + replay), and after the drain the far
// tier holds only whole-object images — a torn or double-applied batch
// would leave an object mixing values from different passes.
func TestChaosMidFlushDisconnectReplaysStagedWrites(t *testing.T) {
	before := runtime.NumGoroutine()
	const (
		objSize = 4096
		perObj  = objSize / 8
		nObjs   = 64
		n       = nObjs * perObj
		pass1   = 7000
		pass2   = 9000
	)

	srv := remote.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Writes dominate this workload's traffic (cyclic dirty walk over a
	// working set 8x the cache), so a cut every ~24 KiB lands squarely on
	// in-flight WRITEBATCH frames.
	fcfg, err := faultnet.ParseSpec("cut=24576,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, fcfg)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := New(Config{
		PinnedMemory:    1 << 20,
		RemotableMemory: 8 * objSize, // 8-object cache over a 64-object array
		WriteBackMemory: nObjs * objSize,
		RemoteAddr:      proxy.Addr(),
		RemoteTimeout:   300 * time.Millisecond,
		RemoteRetries:   64,
		// No breaker: transient cuts must be survived by retry/replay
		// alone, keeping the test about the write-back pipeline.
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	arr, err := NewArray[int64](rt, "wb", n, Remotable)
	if err != nil {
		t.Fatal(err)
	}
	for pass, base := range []int64{pass1, pass2} {
		for i := 0; i < n; i++ {
			if err := arr.Set(i, base+int64(i%perObj)); err != nil {
				t.Fatalf("pass %d Set(%d): %v", pass, i, err)
			}
		}
	}

	// Read-your-writes across the replays: every element must come back
	// with its pass-2 value, whether it is resident, staged for
	// write-back, or already durable on the far tier.
	for i := 0; i < n; i++ {
		v, err := arr.Get(i)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if want := pass2 + int64(i%perObj); v != want {
			t.Fatalf("element %d = %d, want %d", i, v, want)
		}
	}

	st := rt.rt.Stats()
	if st.StagedWriteBacks == 0 {
		t.Fatal("StagedWriteBacks = 0: evictions never took the async path")
	}
	if st.WriteBackReissues == 0 {
		t.Fatal("WriteBackReissues = 0: no staged write was replayed — the cut schedule never caught a flush in flight")
	}
	if proxy.Cuts() < 5 {
		t.Errorf("proxy forced %d disconnects, want >= 5", proxy.Cuts())
	}

	if err := rt.Close(); err != nil { // drains the staged write-backs
		t.Fatalf("drain on close: %v", err)
	}

	// Far-tier images must be whole-object: every stored object is a
	// complete pass-1 or pass-2 snapshot (an object evicted again after
	// its pass-2 rewrite carries pass-2 throughout), never a mix.
	stored := 0
	for o := 0; o < nObjs; o++ {
		buf := srv.Store.Read(0, uint32(o), objSize)
		if bytes.Equal(buf, make([]byte, objSize)) {
			continue // never evicted: only ever lived in local memory
		}
		stored++
		base := int64(binary.LittleEndian.Uint64(buf)) // word 0 fixes the pass
		if base != pass1 && base != pass2 {
			t.Fatalf("object %d word 0 = %d, want %d or %d", o, base, pass1, pass2)
		}
		for w := 1; w < perObj; w++ {
			got := int64(binary.LittleEndian.Uint64(buf[w*8:]))
			if got != base+int64(w) {
				t.Fatalf("object %d torn: word %d = %d, want %d (pass base %d)",
					o, w, got, base+int64(w), base)
			}
		}
	}
	if stored == 0 {
		t.Fatal("no objects reached the far tier")
	}
	t.Logf("replayed %d uncertain write-backs across %d cuts; %d/%d objects durable and whole",
		st.WriteBackReissues, proxy.Cuts(), stored, nObjs)

	proxy.Close()
	srv.Close()
	checkGoroutines(t, before)
}
