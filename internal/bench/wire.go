package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"cards/internal/core"
	"cards/internal/faultnet"
	"cards/internal/ir"
	"cards/internal/obs"
	"cards/internal/policy"
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
// plus adaptive per-object LZ compression, plus compiler-aided
// dirty-range write-back.
// Two compiled workloads cover the two traffic shapes: the analytics
// table scan (bulk column reads and writes, highly compressible ramp
// data) and the pointer chase (small dependent reads, header-dominated
// frames).
func Wire(cfg Config) (*Table, error) {
	works := []struct {
		name  string
		build func() (*ir.Module, error)
	}{
		{"analytics", func() (*ir.Module, error) {
			return workloads.BuildTaxi(workloads.TaxiConfig{
				Trips: cfg.TaxiTrips, HotPasses: cfg.HotPasses, Seed: cfg.Seed}).Module, nil
		}},
		{"pointerchase", func() (*ir.Module, error) {
			w, err := workloads.BuildChase("list", workloads.ChaseConfig{N: cfg.ChaseN, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			return w.Module, nil
		}},
	}

	t := &Table{
		ID: "wire",
		Title: fmt.Sprintf("Wire efficiency across the compact/compression/range ladder, %d MiB/s simulated link",
			wireBandwidth>>20),
		Header: []string{"workload", "mode", "KB/op", "wire MB", "ops", "wall", "bytes vs compact", "tput vs compact"},
	}
	for _, w := range works {
		var base *wireResult
		for i, mode := range wireModes {
			r, err := runWire(w.build, mode)
			if err != nil {
				return nil, fmt.Errorf("wire %s/%s: %w", w.name, mode.name, err)
			}
			if i == 0 {
				base = r
			} else if r.checksum != base.checksum {
				return nil, fmt.Errorf("wire %s/%s: checksum %#x != %s %#x — the wire tier changed the program's result",
					w.name, mode.name, r.checksum, wireModes[0].name, base.checksum)
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
		"compact = bit-packed batch frames with compression off (objects ship raw); range write-back additionally needs the compiler's guard spans, threaded here by the standard pass pipeline")
	return t, nil
}

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

// runWire executes one compiled workload over a fresh bandwidth-shaped
// server with the mode's wire features and returns the traffic tally.
func runWire(build func() (*ir.Module, error), mode wireMode) (*wireResult, error) {
	srv := remote.NewServer()
	srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		return faultnet.Wrap(c, faultnet.Config{Bandwidth: wireBandwidth, Seed: 1})
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
	start := time.Now()
	res, err := c.Run(core.RunConfig{
		Policy:          policy.AllRemotable,
		PinnedBudget:    0,
		RemotableBudget: 8 * 4096,
		Store:           cl,
		RangeWriteback:  mode.rangeWB,
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
