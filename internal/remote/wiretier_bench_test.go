package remote

import (
	"testing"

	"cards/internal/obs"
)

func benchServerRamp(b *testing.B) string {
	b.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	buf := make([]byte, benchObjSize)
	for j := range buf {
		buf[j] = byte(j)
	}
	srv.Store.Write(0, 0, buf)
	return addr
}

// BenchmarkWireTierReadTCP pins the CPU cost of adaptive compression on
// a clean loopback link, ramp (non-zero, LZ-compressible) payloads:
// "compact" is the reserved-header DATABATCH-C fast path with
// compression off, and "compact-lz" shows what the adaptive compressor
// costs when the link is not the bottleneck (the wire sweep shows the
// inverse trade).
func BenchmarkWireTierReadTCP(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts PipelineOpts
	}{
		{"compact", PipelineOpts{Window: 32, Compression: "off"}},
		{"compact-lz", PipelineOpts{Window: 32}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			addr := benchServerRamp(b)
			reg := obs.NewRegistry()
			o := tc.opts
			o.Obs = reg
			cl, err := DialPipelined(addr, o)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			benchPipelinedRead(b, cl)
			snap := reg.Snapshot()
			if h := snap.Histogram(MetricClientBatchSize); h.Count > 0 {
				b.ReportMetric(float64(h.Sum)/float64(h.Count), "reads/batch")
			}
			var wire uint64
			for k, v := range snap.Counters {
				if len(k) >= len(MetricWireBytes) && k[:len(MetricWireBytes)] == MetricWireBytes {
					wire += v
				}
			}
			b.ReportMetric(float64(wire)/float64(b.N), "wireB/op")
		})
	}
}
