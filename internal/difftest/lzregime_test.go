package difftest

import (
	"io"
	"testing"
	"time"

	"cards/internal/faultnet"
	"cards/internal/ir"
	"cards/internal/obs"
	"cards/internal/remote"
	"cards/internal/testutil"
	"cards/internal/workloads"
)

// TestCompressionRegimes runs a compiled taxi program over two TCP
// loopback far tiers that differ only in their link: one plain, one
// shaped to a few MiB/s. Both must match the in-process oracle, and
// each session's latency controller must settle on the regime's
// answer: LZ off where the codec costs more than the bytes it saves,
// on where the bytes are the cost.
func TestCompressionRegimes(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	build := func() (*ir.Module, error) {
		return workloads.BuildTaxi(workloads.TaxiConfig{Trips: 256, HotPasses: 6, Seed: 3}).Module, nil
	}
	cfg := Config{}.withDefaults()
	oracle := run(t, build, cfg, nil).MainResult

	for _, tc := range []struct {
		name      string
		bandwidth int // bytes/s each way; 0 = unshaped
		wantOn    int64
	}{
		{"plain", 0, 0},
		{"shaped", 4 << 20, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := remote.NewServer()
			if tc.bandwidth > 0 {
				srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
					return faultnet.Wrap(c, faultnet.Config{Bandwidth: tc.bandwidth, Seed: 1})
				}
			}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			reg := obs.NewRegistry()
			cl, err := remote.DialPipelined(addr, remote.PipelineOpts{Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// Over the per-hop view (no range verb) every miss still
			// fetches, so the session carries the traffic whose regime
			// it must decide (write-validate would leave the plain link
			// a dozen reads).
			start := time.Now()
			res := run(t, build, cfg, perHop{c: cl})
			if res.MainResult != oracle {
				t.Fatalf("checksum %#x != oracle %#x", res.MainResult, oracle)
			}
			snap := reg.Snapshot()
			on := snap.Gauge(remote.MetricCompressOn)
			t.Logf("%s: %v, %d fetches, LZ on=%d, %d switches, %d probe reads", tc.name,
				time.Since(start).Round(time.Millisecond), res.Runtime.RemoteFetches, on,
				snap.Counter(remote.MetricCompressSwitches), snap.Counter(remote.MetricCompressProbeOps))
			if on != tc.wantOn {
				t.Fatalf("%s link: controller ended with LZ on=%d, want %d", tc.name, on, tc.wantOn)
			}
		})
	}
}
