package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/faultnet"
	"cards/internal/ir"
	"cards/internal/obs"
	"cards/internal/policy"
	"cards/internal/rdma"
	"cards/internal/remote"
	"cards/internal/workloads"
)

const (
	// wireBandwidth is the simulated link capacity: every byte through
	// the server connection pays serialization delay at this rate, so
	// bytes saved on the wire convert directly into wall-clock time.
	wireBandwidth = 24 << 20 // 24 MiB/s
)

// wireMode is one rung of the wire-efficiency feature ladder.
type wireMode struct {
	name        string
	compression string
	rangeWB     bool
}

// wireModes is the ladder; the first rung is the baseline the ratio
// columns compare against.
var wireModes = []wireMode{
	{"compact", "off", false},
	{"compact+lz", "", false},
	{"compact+lz+range", "", true},
}

// Wire measures bytes-on-wire per remote operation and end-to-end run
// time at a fixed simulated link bandwidth, across the wire-tier
// feature ladder: the bit-packed compact encoding with objects raw,
// plus adaptive compression, plus compiler-aided dirty-range
// write-back.
// Two compiled workloads cover the two traffic shapes: the analytics
// table scan (bulk column reads and writes, highly compressible ramp
// data) and the pointer chase (small dependent reads, header-dominated
// frames). The analytics-loopback rows rerun the first two rungs on an
// unshaped loopback link, the other regime: there adaptive compression
// must switch LZ off and keep pace with the raw rung.
func Wire(cfg Config) (*Table, error) {
	taxi := func() (*ir.Module, error) {
		return workloads.BuildTaxi(workloads.TaxiConfig{
			Trips: cfg.TaxiTrips, HotPasses: cfg.HotPasses, Seed: cfg.Seed}).Module, nil
	}
	works := []struct {
		name      string
		build     func() (*ir.Module, error)
		bandwidth int // link bytes/s each way; 0 = unshaped loopback
		modes     []wireMode
	}{
		{"analytics", taxi, wireBandwidth, wireModes},
		{"pointerchase", func() (*ir.Module, error) {
			w, err := workloads.BuildChase("list", workloads.ChaseConfig{N: cfg.ChaseN, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			return w.Module, nil
		}, wireBandwidth, wireModes},
		{"analytics-loopback", taxi, 0, wireModes[:2]},
	}

	t := &Table{
		ID: "wire",
		Title: fmt.Sprintf("Wire efficiency across the compact/compression/range ladder, %d MiB/s simulated link and unshaped loopback",
			wireBandwidth>>20),
		Header: []string{"workload", "mode", "KB/op", "wire MB", "ops", "wall", "bytes vs compact", "tput vs compact"},
	}
	for _, w := range works {
		var base *wireResult
		for i, mode := range w.modes {
			r, err := runWire(w.build, mode, w.bandwidth)
			if err != nil {
				return nil, fmt.Errorf("wire %s/%s: %w", w.name, mode.name, err)
			}
			if i == 0 {
				base = r
			} else if r.checksum != base.checksum {
				return nil, fmt.Errorf("wire %s/%s: checksum %#x != %s %#x — the wire tier changed the program's result",
					w.name, mode.name, r.checksum, w.modes[0].name, base.checksum)
			}
			t.Rows = append(t.Rows, []string{
				w.name, mode.name,
				fmt.Sprintf("%.2f", r.perOp()/1024),
				fmt.Sprintf("%.2f", float64(r.wireBytes)/(1<<20)),
				fmt.Sprintf("%d", r.ops),
				r.elapsed.Round(time.Millisecond).String(),
				ratio(base.perOp() / r.perOp()),
				ratio(base.elapsed.Seconds() / r.elapsed.Seconds()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"every mode runs the same compiled workload to the same checksum; only the wire tier differs",
		"KB/op = total frame bytes both directions / (remote fetches + write-backs); wall-clock includes the final drain",
		fmt.Sprintf("the link serializes at %d MiB/s each way, so 'tput vs compact' tracks how much of the byte saving survives as end-to-end speedup", wireBandwidth>>20),
		"analytics-loopback runs unshaped: the codec costs more than the bytes it saves, so adaptive compression must turn LZ off and 'tput vs compact' stay near 1x",
		"compact = bit-packed batch frames with compression off (objects ship raw); range write-back additionally needs the compiler's guard spans, threaded here by the standard pass pipeline",
		"compact and compact+lz run over a view of the client without the range verb (Rangeless): every miss fetches and every eviction ships the whole object; the range rung adds dirty-range write-back and write-validate (store-only misses skip the fetch)")
	return t, nil
}

// Rangeless hides a pipelined client's range write verb
// (IssueWriteRanges) and forwards every other surface the runtime
// detects: async reads and writes, traversal offload and the liveness
// probe. Over it every dirty eviction ships the full object and every
// miss fetches (write-validate needs the range verb) — the full-image
// baseline of the wire ladder's first rungs, like syncWriteStore hides
// IssueWrite for the write-back sweep's baseline.
type Rangeless struct{ C *remote.PipelinedClient }

func (s Rangeless) ReadObj(ds, idx int, dst []byte) error  { return s.C.ReadObj(ds, idx, dst) }
func (s Rangeless) WriteObj(ds, idx int, src []byte) error { return s.C.WriteObj(ds, idx, src) }
func (s Rangeless) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.C.IssueRead(ds, idx, dst, done)
}
func (s Rangeless) IssueWrite(ds, idx int, src []byte, done func(error)) {
	s.C.IssueWrite(ds, idx, src, done)
}
func (s Rangeless) ChaseCapable() bool { return s.C.ChaseCapable() }
func (s Rangeless) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	return s.C.Chase(req)
}
func (s Rangeless) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	s.C.IssueChase(req, done)
}
func (s Rangeless) Ping() error { return s.C.Ping() }

// The baseline keeps every capability but the range verb.
var (
	_ farmem.AsyncWriteStore = Rangeless{}
	_ farmem.AsyncChaseStore = Rangeless{}
	_ farmem.Pinger          = Rangeless{}
)

// wireResult is one mode's measurement.
type wireResult struct {
	wireBytes uint64
	ops       uint64
	elapsed   time.Duration
	checksum  uint64
}

func (r *wireResult) perOp() float64 {
	if r.ops == 0 {
		return 0
	}
	return float64(r.wireBytes) / float64(r.ops)
}

// runWire executes one compiled workload over a fresh server, its link
// shaped to bandwidth bytes/s (0: unshaped), with the mode's wire
// features and returns the traffic tally.
func runWire(build func() (*ir.Module, error), mode wireMode, bandwidth int) (*wireResult, error) {
	srv := remote.NewServer()
	if bandwidth > 0 {
		srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
			return faultnet.Wrap(c, faultnet.Config{Bandwidth: bandwidth, Seed: 1})
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	cl, err := remote.DialPipelined(addr, remote.PipelineOpts{
		Obs:         reg,
		Compression: mode.compression,
	})
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer cl.Close()

	m, err := build()
	if err != nil {
		return nil, err
	}
	c, err := core.Compile(m, core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	var store farmem.Store = cl
	if !mode.rangeWB {
		store = Rangeless{C: cl}
	}
	start := time.Now()
	res, err := c.Run(core.RunConfig{
		Policy:          policy.AllRemotable,
		PinnedBudget:    0,
		RemotableBudget: 8 * 4096,
		Store:           store,
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	var wire uint64
	prefix := remote.MetricWireBytes + "{"
	for k, v := range reg.Snapshot().Counters {
		if k == remote.MetricWireBytes || strings.HasPrefix(k, prefix) {
			wire += v
		}
	}
	ops := res.Runtime.RemoteFetches
	for _, d := range res.PerDS {
		ops += d.WriteBacks
	}
	return &wireResult{wireBytes: wire, ops: ops, elapsed: elapsed, checksum: res.MainResult}, nil
}
