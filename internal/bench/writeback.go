package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"cards/internal/farmem"
	"cards/internal/faultnet"
	"cards/internal/remote"
)

const (
	// wbObjSize matches the runtime's page-sized object granularity.
	wbObjSize = 4096
	// wbNetLatency is injected into every server-side frame read,
	// standing in for the far tier's network round trip: loopback alone
	// is CPU-bound and would hide exactly the RTT the async pipeline
	// exists to take off the eviction path.
	wbNetLatency = 200 * time.Microsecond
	// wbWorkingSet and wbCacheObjs size the dirty walk so every touch
	// past warm-up is a miss that must evict a dirty object first.
	wbWorkingSet = 64
	wbCacheObjs  = 16
	// wbLookahead keeps demand reads prefetched (and batch-coalesced)
	// in both modes, so the sync-vs-async delta isolates the write side.
	wbLookahead = 4
)

// Writeback measures dirty-eviction write-back throughput and access
// tail latency of the synchronous write path (one blocking write round
// trip per eviction, on the deref critical path) against the
// asynchronous batched pipeline (evictions staged to pooled buffers and
// flushed as batched write frames), over a real TCP loopback connection
// with injected per-frame service latency.
func Writeback(cfg Config) (*Table, error) {
	writes := int(cfg.WritebackWrites)
	if writes <= 0 {
		writes = 512
	}

	srv := remote.NewServer()
	srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		return faultnet.Wrap(c, faultnet.Config{Latency: wbNetLatency, Seed: 1})
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("writeback: listen: %w", err)
	}
	defer srv.Close()

	sync, err := runWriteback(addr, writes, false, 0)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "writeback",
		Title: fmt.Sprintf("Dirty-eviction write-back, sync vs async pipeline, %d writes x %dB, %v injected RTT",
			writes, wbObjSize, wbNetLatency),
		Header: []string{"mode", "batch", "writebacks/s", "access p50", "access p99", "staged", "vs sync"},
	}
	syncWps := sync.perSec()
	row := func(mode, batch string, r *wbResult) {
		t.Rows = append(t.Rows, []string{
			mode, batch,
			fmt.Sprintf("%.0f", r.perSec()),
			r.p50.Round(time.Microsecond).String(),
			r.p99.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", r.staged),
			ratio(r.perSec() / syncWps),
		})
	}
	row("sync", "-", sync)
	for _, mb := range []int{4, 16, 32} {
		r, err := runWriteback(addr, writes, true, mb)
		if err != nil {
			return nil, err
		}
		row("async", fmt.Sprintf("%d", mb), r)
	}
	t.Notes = append(t.Notes,
		"wall-clock over real sockets; every touch past warm-up evicts a dirty object before it can fault its own in",
		"sync = one blocking WRITE round trip per eviction inside the deref; async = eviction copies to a pooled staging buffer and WRITEBATCH frames flush off the critical path",
		fmt.Sprintf("access latency spans one walk step (prefetch issue + guard); reads are prefetched %d ahead in both modes so the delta isolates the write path", wbLookahead),
		"elapsed includes the final drain: throughput counts only durable write-backs")
	return t, nil
}

// wbResult is one mode's measurement.
type wbResult struct {
	elapsed    time.Duration
	writeBacks uint64
	staged     uint64 // async evictions staged off the critical path
	p50, p99   time.Duration
}

func (r *wbResult) perSec() float64 {
	return float64(r.writeBacks) / r.elapsed.Seconds()
}

// syncWriteStore hides the pipelined client's IssueWrite so the runtime
// falls back to synchronous write-backs while keeping the asynchronous
// read path (prefetch coalescing) identical — the baseline differs only
// in how evictions reach the wire.
type syncWriteStore struct{ c *remote.PipelinedClient }

func (s syncWriteStore) ReadObj(ds, idx int, dst []byte) error  { return s.c.ReadObj(ds, idx, dst) }
func (s syncWriteStore) WriteObj(ds, idx int, src []byte) error { return s.c.WriteObj(ds, idx, src) }
func (s syncWriteStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.c.IssueRead(ds, idx, dst, done)
}

// runWriteback drives one cyclic dirty walk over the working set:
// prefetch wbLookahead ahead, write-guard the current object, repeat.
// Timing includes the final drain so both modes are charged until every
// write-back is durable.
func runWriteback(addr string, writes int, async bool, maxBatch int) (*wbResult, error) {
	c, err := remote.DialPipelined(addr, remote.PipelineOpts{MaxBatch: maxBatch})
	if err != nil {
		return nil, fmt.Errorf("writeback: dial: %w", err)
	}
	defer c.Close()

	var store farmem.Store = c
	if !async {
		store = syncWriteStore{c}
	}
	rt := farmem.New(farmem.Config{
		PinnedBudget:    1 << 20,
		RemotableBudget: wbCacheObjs * wbObjSize,
		WriteBackBudget: wbWorkingSet * wbObjSize,
		Store:           store,
		MaxInflight:     2 * wbLookahead,
	})
	if _, err := rt.RegisterDS(0, farmem.DSMeta{Name: "wb", ObjSize: wbObjSize}); err != nil {
		return nil, err
	}
	if err := rt.SetPlacement(0, farmem.PlaceRemotable); err != nil {
		return nil, err
	}
	base, err := rt.DSAlloc(0, wbWorkingSet*wbObjSize)
	if err != nil {
		return nil, err
	}
	d := rt.DSByID(0)

	lats := make([]time.Duration, 0, writes)
	start := time.Now()
	for n := 0; n < writes; n++ {
		i := n % wbWorkingSet
		t0 := time.Now()
		for a := 1; a <= wbLookahead; a++ {
			rt.PrefetchObj(d, (i+a)%wbWorkingSet)
		}
		if _, err := rt.Guard(base+uint64(i*wbObjSize), true); err != nil {
			return nil, fmt.Errorf("writeback: guard obj %d: %w", i, err)
		}
		lats = append(lats, time.Since(t0))
	}
	if err := rt.Close(); err != nil { // drains staged write-backs
		return nil, fmt.Errorf("writeback: drain: %w", err)
	}
	elapsed := time.Since(start)

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	st := rt.Stats()
	return &wbResult{
		elapsed:    elapsed,
		writeBacks: d.Stats().WriteBacks,
		staged:     st.StagedWriteBacks,
		p50:        lats[len(lats)/2],
		p99:        lats[len(lats)*99/100],
	}, nil
}
