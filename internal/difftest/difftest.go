// Package difftest is the differential-testing harness that proves the
// traversal-offload path exact: every traversal workload runs three
// ways — against the in-process store (the oracle), against a TCP far
// tier with offload hidden (serial per-hop reads), and against the same
// far tier with CHASEBATCH offload live — and the three checksums must
// be bit-identical. The remote modes run through the faultnet chaos
// proxy under a seeded schedule, so the equivalence holds not just on a
// clean link but across forced disconnects and corrupted frames: an
// offloaded chase that survived a replay must deliver exactly the bytes
// the per-hop path would have.
//
// The harness is what the pointer-chase and BFS e2e suites build on;
// it returns each mode's runtime tallies so callers can additionally
// pin the offload accounting (programs issued, hops staged, staging
// hits, stale drops, fallbacks).
package difftest

import (
	"testing"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/faultnet"
	"cards/internal/ir"
	"cards/internal/policy"
	"cards/internal/remote"
)

// Outcome is one remote mode's run: the workload checksum plus the
// runtime tallies and injected-fault counts behind it.
type Outcome struct {
	Checksum    uint64
	Stats       farmem.RuntimeStats
	Cuts        int64
	Corruptions int64
}

// Config shapes one differential run.
type Config struct {
	// Spec is the faultnet schedule for the remote modes ("" = clean
	// link; see faultnet.ParseSpec).
	Spec string
	// RemotableBudget sizes the local cache in bytes (0: 8 x 4 KiB —
	// small enough that real traversals leave the cache constantly).
	RemotableBudget uint64
	// RetryMax reissues failed store operations (chaos runs need it).
	RetryMax int
	// Window and MaxBatch shape the pipelined session. Chaos runs keep
	// batches small so coalesced reply frames fit the cut budget.
	Window, MaxBatch int
	// RangeWriteback turns on compiler-aided dirty-range write-back for
	// the remote modes: evicted dirty objects ship only their modified
	// extents over the compact WRITERANGE verb (the per-hop control
	// hides the range surface, so it stays on full-object writes). The
	// differential then also proves range splices exact across replayed
	// and duplicated writes: a lost or misapplied extent would surface
	// as a checksum divergence on the next fetch of that object.
	RangeWriteback bool
	// Compression sets the compact tier's compression mode for the
	// remote modes ("" = adaptive, "off" = raw).
	Compression string
}

func (c Config) withDefaults() Config {
	if c.RemotableBudget == 0 {
		c.RemotableBudget = 8 * 4096
	}
	return c
}

// perHop hides a session's traversal-offload surface while leaving the
// pipelined read/write path intact: the farmem runtime's capability
// detection (type assertions) sees an async store but no chase verbs,
// so every traversal pays one dependent round trip per hop. This is
// the differential control — same server, same chaos schedule, offload
// off.
type perHop struct{ c *remote.PipelinedClient }

func (p perHop) ReadObj(ds, idx int, dst []byte) error  { return p.c.ReadObj(ds, idx, dst) }
func (p perHop) WriteObj(ds, idx int, src []byte) error { return p.c.WriteObj(ds, idx, src) }
func (p perHop) IssueRead(ds, idx int, dst []byte, done func(error)) {
	p.c.IssueRead(ds, idx, dst, done)
}
func (p perHop) IssueWrite(ds, idx int, src []byte, done func(error)) {
	p.c.IssueWrite(ds, idx, src, done)
}
func (p perHop) Ping() error { return p.c.Ping() }

// compile-time capability contract: the control forwards the async
// surfaces but must never grow the chase ones.
var (
	_ farmem.AsyncStore      = perHop{}
	_ farmem.AsyncWriteStore = perHop{}
	_ farmem.Pinger          = perHop{}
)

// run executes one compiled workload against store (nil: the oracle's
// in-process store) and returns the run result.
func run(t testing.TB, build func() (*ir.Module, error), cfg Config, store farmem.Store) *core.RunResult {
	t.Helper()
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
		RemotableBudget: cfg.RemotableBudget,
		Store:           store,
		RetryMax:        cfg.RetryMax,
		RangeWriteback:  cfg.RangeWriteback,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// dialPipelined dials through the chaos proxy. A handshake garbled by
// the proxy fails like any other dial attempt and is retried under the
// RetryMax budget; every frame after it is CRC-checked.
func dialPipelined(t testing.TB, addr string, cfg Config) *remote.PipelinedClient {
	t.Helper()
	c, err := remote.DialPipelined(addr, remote.PipelineOpts{
		Timeout:     300 * time.Millisecond,
		RetryMax:    64,
		RetryBase:   time.Millisecond,
		RetryCap:    20 * time.Millisecond,
		Window:      cfg.Window,
		MaxBatch:    cfg.MaxBatch,
		Compression: cfg.Compression,
	})
	if err != nil {
		t.Fatalf("difftest: dial through the chaos proxy: %v", err)
	}
	return c
}

// remoteMode runs the workload against a fresh server through a fresh
// chaos proxy, with the traversal-offload surface either live or
// hidden. Each mode gets its own server and proxy so the fault
// schedules are independently seeded and the stores start cold.
func remoteMode(t testing.TB, build func() (*ir.Module, error), cfg Config, offload bool) Outcome {
	t.Helper()
	srv := remote.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fcfg, err := faultnet.ParseSpec(cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cl := dialPipelined(t, proxy.Addr(), cfg)
	defer cl.Close()

	var store farmem.Store = cl
	if !offload {
		store = perHop{c: cl}
	}
	res := run(t, build, cfg, store)
	return Outcome{
		Checksum:    res.MainResult,
		Stats:       res.Runtime,
		Cuts:        proxy.Cuts(),
		Corruptions: proxy.Corruptions(),
	}
}

// Run is the harness: the workload's oracle checksum, then the per-hop
// and offloaded remote runs, all three asserted bit-identical. It
// returns the per-hop and offloaded outcomes for the caller to pin
// accounting and fault-volume expectations on.
func Run(t testing.TB, build func() (*ir.Module, error), cfg Config) (perhop, offload Outcome) {
	t.Helper()
	cfg = cfg.withDefaults()

	oracle := run(t, build, cfg, nil).MainResult

	perhop = remoteMode(t, build, cfg, false)
	if perhop.Checksum != oracle {
		t.Errorf("per-hop checksum %#x != oracle %#x", perhop.Checksum, oracle)
	}
	if perhop.Stats.ChasesIssued != 0 {
		t.Errorf("per-hop mode issued %d chase programs; the control must stay offload-free",
			perhop.Stats.ChasesIssued)
	}

	offload = remoteMode(t, build, cfg, true)
	if offload.Checksum != oracle {
		t.Errorf("offloaded checksum %#x != oracle %#x", offload.Checksum, oracle)
	}
	checkAccounting(t, offload.Stats)
	return perhop, offload
}

// checkAccounting pins the offload tallies' internal consistency — the
// "exact obs accounting" half of the differential contract. The counts
// must tell a coherent story whatever the fault schedule did:
// staged hops only come from issued programs, staging hits only from
// staged hops, and every issued program is also counted as an issued
// prefetch (the chase path reports through the standard prefetch
// accuracy metrics, so the adaptive machinery sees it).
func checkAccounting(t testing.TB, s farmem.RuntimeStats) {
	t.Helper()
	if s.ChaseHopsStaged > 0 && s.ChasesIssued == 0 {
		t.Errorf("chase accounting: %d hops staged with zero programs issued", s.ChaseHopsStaged)
	}
	if s.ChaseStagingHits > s.ChaseHopsStaged {
		t.Errorf("chase accounting: %d staging hits exceed %d staged hops",
			s.ChaseStagingHits, s.ChaseHopsStaged)
	}
	if s.ChaseStale > 0 && s.ChasesIssued == 0 {
		t.Errorf("chase accounting: %d stale drops with zero programs issued", s.ChaseStale)
	}
}
