package shardmap

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cards/internal/farmem"
	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/stats"
)

// Per-shard metric names (label shard="<i>"), following the
// cards_<layer>_<name> scheme.
const (
	MetricShardReads      = "cards_shard_reads_total"
	MetricShardWrites     = "cards_shard_writes_total"
	MetricShardBytesIn    = "cards_shard_bytes_in_total"
	MetricShardBytesOut   = "cards_shard_bytes_out_total"
	MetricShardFailures   = "cards_shard_failures_total"
	MetricShardDegraded   = "cards_shard_degraded_ops_total"
	MetricShardTrips      = "cards_shard_breaker_trips_total"
	MetricShardRecoveries = "cards_shard_breaker_recoveries_total"
	MetricShardObjects    = "cards_shard_objects"
	MetricShardState      = "cards_shard_breaker_state"
)

// Options configures a ShardedStore.
type Options struct {
	// BreakerThreshold is the number of consecutive failures that trip
	// one shard's breaker open (independent of the other shards).
	// 0 disables per-shard breakers: every failure propagates raw.
	BreakerThreshold int
	// ProbeEvery is the wall-clock interval between liveness probes of
	// open shards; 0 means 250ms.
	ProbeEvery time.Duration
	// Obs receives the per-shard series; nil allocates a private
	// registry (reachable via ShardedStore.Obs).
	Obs *obs.Registry
}

// shard is one backend plus its private fault domain (a farmem.Domain —
// the breaker/probe state machine the runtime and the replica layer
// drive too) and metric series. One dead backend degrades exactly the
// keys it owns.
type shard struct {
	store   farmem.Store
	astore  farmem.AsyncStore      // non-nil iff the backend supports IssueRead
	awstore farmem.AsyncWriteStore // non-nil iff the backend supports IssueWrite
	rwstore farmem.RangeWriteStore // non-nil iff the backend supports IssueWriteRanges
	chaser  farmem.AsyncChaseStore // non-nil iff the backend supports IssueChase
	pinger  farmem.Pinger          // non-nil iff the backend supports Ping

	dom farmem.Domain

	// lastRecovery is the RecoveryEpoch value stamped when this shard
	// last recovered — the drain-scoping cue that lets the runtime drain
	// only the recovering shard's stranded write-backs.
	lastRecovery atomic.Uint64

	mu      sync.Mutex
	objects map[uint64]struct{} // keys ever written, for the objects gauge

	reads, writes, bytesIn, bytesOut *stats.Counter
	failures, degraded               *stats.Counter
	trips, recoveries                *stats.Counter
	objGauge, stateGauge             *stats.Gauge
}

func (s *shard) gate(probeEvery time.Duration) bool {
	return s.dom.Gate(probeEvery, s.pinger != nil)
}

func (s *shard) breakerState() farmem.BreakerState { return s.dom.State() }

// ShardedStore multiplexes farmem store traffic across N backends using
// rendezvous placement (see Map). It implements farmem.Store,
// farmem.AsyncStore, farmem.AsyncWriteStore, farmem.Pinger and
// farmem.Recoverable.
//
// Fault domains are per shard: operations against a tripped shard fail
// fast with an error wrapping farmem.ErrDegraded while the other shards
// keep serving, and a background prober arms recovery per shard. The
// RecoveryEpoch counter advances on every shard recovery, which is the
// farmem runtime's cue to drain dirty write-backs stranded by the
// outage.
type ShardedStore struct {
	m      *Map
	shards []*shard
	opts   Options
	reg    *obs.Registry

	policyMu sync.RWMutex
	policy   map[int]Policy

	recoveryEpoch atomic.Uint64

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewSharded builds a ShardedStore over the given backends. Async issue
// (farmem.AsyncStore) and liveness probing (farmem.Pinger) are detected
// per backend by type assertion, so heterogeneous fleets work — a shard
// without IssueRead just serves prefetches synchronously.
func NewSharded(backends []farmem.Store, opts Options) (*ShardedStore, error) {
	if len(backends) == 0 {
		return nil, errors.New("shardmap: no backends")
	}
	if opts.ProbeEvery <= 0 {
		opts.ProbeEvery = 250 * time.Millisecond
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ss := &ShardedStore{
		m:      NewMap(len(backends)),
		opts:   opts,
		reg:    reg,
		policy: make(map[int]Policy),
		stop:   make(chan struct{}),
	}
	anyPinger := false
	for i, b := range backends {
		l := strconv.Itoa(i)
		s := &shard{
			store:      b,
			objects:    make(map[uint64]struct{}),
			reads:      reg.Counter(MetricShardReads, "shard", l),
			writes:     reg.Counter(MetricShardWrites, "shard", l),
			bytesIn:    reg.Counter(MetricShardBytesIn, "shard", l),
			bytesOut:   reg.Counter(MetricShardBytesOut, "shard", l),
			failures:   reg.Counter(MetricShardFailures, "shard", l),
			degraded:   reg.Counter(MetricShardDegraded, "shard", l),
			trips:      reg.Counter(MetricShardTrips, "shard", l),
			recoveries: reg.Counter(MetricShardRecoveries, "shard", l),
			objGauge:   reg.Gauge(MetricShardObjects, "shard", l),
			stateGauge: reg.Gauge(MetricShardState, "shard", l),
		}
		if as, ok := b.(farmem.AsyncStore); ok {
			s.astore = as
		}
		if aw, ok := b.(farmem.AsyncWriteStore); ok {
			s.awstore = aw
		}
		if rw, ok := b.(farmem.RangeWriteStore); ok {
			s.rwstore = rw
		}
		if cs, ok := b.(farmem.AsyncChaseStore); ok {
			s.chaser = cs
		}
		if p, ok := b.(farmem.Pinger); ok {
			s.pinger = p
			anyPinger = true
		}
		ss.shards = append(ss.shards, s)
	}
	if opts.BreakerThreshold > 0 && anyPinger {
		ss.wg.Add(1)
		go ss.probeLoop()
	}
	return ss, nil
}

// Obs returns the registry the per-shard series are published into.
func (ss *ShardedStore) Obs() *obs.Registry { return ss.reg }

// NumShards returns the number of backends.
func (ss *ShardedStore) NumShards() int { return ss.m.Shards() }

// SetPolicy installs the placement rule for one data structure.
// Unconfigured structures stripe. Must be called before the structure's
// objects are written — changing the rule afterwards would strand them
// on their old shards.
func (ss *ShardedStore) SetPolicy(ds int, p Policy) {
	ss.policyMu.Lock()
	ss.policy[ds] = p
	ss.policyMu.Unlock()
}

// ShardOf returns the owning shard for one object.
func (ss *ShardedStore) ShardOf(ds, idx int) int {
	ss.policyMu.RLock()
	p := ss.policy[ds]
	ss.policyMu.RUnlock()
	if p == PolicyPin {
		return ss.m.OwnerDS(ds)
	}
	return ss.m.OwnerObj(ds, idx)
}

// ShardState reports one shard's breaker state.
func (ss *ShardedStore) ShardState(i int) farmem.BreakerState {
	return ss.shards[i].breakerState()
}

// RecoveryEpoch implements farmem.Recoverable: it advances once per
// shard recovery (half-open trial success), signalling the runtime to
// drain write-backs stranded while that shard was down.
func (ss *ShardedStore) RecoveryEpoch() uint64 { return ss.recoveryEpoch.Load() }

// degradedErr is the fail-fast error for a tripped shard; it wraps
// farmem.ErrDegraded so the runtime can tell a contained shard outage
// from a transport failure (no retries, no global breaker accounting).
func (ss *ShardedStore) degradedErr(i int) error {
	ss.shards[i].degraded.Inc()
	return fmt.Errorf("shardmap: shard %d: %w", i, farmem.ErrDegraded)
}

func (ss *ShardedStore) ok(s *shard) {
	if s.dom.OnSuccess() {
		s.recoveries.Inc()
		// Stamp before publishing the epoch advance: when the runtime
		// observes the new epoch, the recovered shard's stamp is already
		// in place for ShouldDrain.
		s.lastRecovery.Store(ss.recoveryEpoch.Load() + 1)
		ss.recoveryEpoch.Add(1)
	}
	s.stateGauge.Set(int64(farmem.BreakerClosed))
}

func (ss *ShardedStore) fail(s *shard) {
	s.failures.Inc()
	if s.dom.OnFailure(ss.opts.BreakerThreshold) {
		s.trips.Inc()
	}
	s.stateGauge.Set(int64(s.breakerState()))
}

// ShouldDrain implements farmem.DrainScoper: after observing a
// recovery-epoch advance past sinceEpoch, the runtime drains only
// objects whose owning shard recovered in that window and is serving
// again — not every dirty object in the cache.
func (ss *ShardedStore) ShouldDrain(ds, idx int, sinceEpoch uint64) bool {
	s := ss.shards[ss.ShardOf(ds, idx)]
	return s.lastRecovery.Load() > sinceEpoch && s.breakerState() == farmem.BreakerClosed
}

// Stranded implements farmem.DrainScoper: the owning shard is still
// refusing traffic, so the object must stay pinned for a future
// recovery epoch rather than be drained now.
func (ss *ShardedStore) Stranded(ds, idx int) bool {
	return ss.shards[ss.ShardOf(ds, idx)].breakerState() != farmem.BreakerClosed
}

// ReadObj implements farmem.Store, routing to the owning shard.
func (ss *ShardedStore) ReadObj(ds, idx int, dst []byte) error {
	i := ss.ShardOf(ds, idx)
	s := ss.shards[i]
	if !s.gate(ss.opts.ProbeEvery) {
		return ss.degradedErr(i)
	}
	if err := s.store.ReadObj(ds, idx, dst); err != nil {
		ss.fail(s)
		return fmt.Errorf("shardmap: shard %d read: %w", i, err)
	}
	ss.ok(s)
	s.reads.Inc()
	s.bytesIn.Add(uint64(len(dst)))
	return nil
}

// WriteObj implements farmem.Store, routing to the owning shard.
func (ss *ShardedStore) WriteObj(ds, idx int, src []byte) error {
	i := ss.ShardOf(ds, idx)
	s := ss.shards[i]
	if !s.gate(ss.opts.ProbeEvery) {
		return ss.degradedErr(i)
	}
	if err := s.store.WriteObj(ds, idx, src); err != nil {
		ss.fail(s)
		return fmt.Errorf("shardmap: shard %d write: %w", i, err)
	}
	ss.ok(s)
	s.writes.Inc()
	s.bytesOut.Add(uint64(len(src)))
	s.noteObject(ds, idx)
	return nil
}

// noteObject maintains the objects-per-shard gauge (distinct keys ever
// written through this store).
func (s *shard) noteObject(ds, idx int) {
	key := uint64(ds)<<32 | uint64(uint32(idx))
	s.mu.Lock()
	n := len(s.objects)
	s.objects[key] = struct{}{}
	grew := len(s.objects) != n
	s.mu.Unlock()
	if grew {
		s.objGauge.Add(1)
	}
}

// IssueRead implements farmem.AsyncStore. Reads fan out: each shard has
// its own pipelined connection, so a prefetch batch that spans shards
// rides N doorbells in parallel. A shard without async support serves
// the read synchronously before returning.
func (ss *ShardedStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	i := ss.ShardOf(ds, idx)
	s := ss.shards[i]
	if !s.gate(ss.opts.ProbeEvery) {
		done(ss.degradedErr(i))
		return
	}
	finish := func(err error) {
		if err != nil {
			ss.fail(s)
			done(fmt.Errorf("shardmap: shard %d read: %w", i, err))
			return
		}
		ss.ok(s)
		s.reads.Inc()
		s.bytesIn.Add(uint64(len(dst)))
		done(nil)
	}
	if s.astore != nil {
		s.astore.IssueRead(ds, idx, dst, finish)
		return
	}
	finish(s.store.ReadObj(ds, idx, dst))
}

// IssueWrite implements farmem.AsyncWriteStore, fanning staged
// write-backs out to each shard's own pipelined write window. A tripped
// shard fails fast — the runtime parks the staged payload until this
// shard's recovery epoch — and a backend without async support serves
// the write synchronously before returning.
func (ss *ShardedStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	i := ss.ShardOf(ds, idx)
	s := ss.shards[i]
	if !s.gate(ss.opts.ProbeEvery) {
		done(ss.degradedErr(i))
		return
	}
	finish := func(err error) {
		if err != nil {
			ss.fail(s)
			done(fmt.Errorf("shardmap: shard %d write: %w", i, err))
			return
		}
		ss.ok(s)
		s.writes.Inc()
		s.bytesOut.Add(uint64(len(src)))
		s.noteObject(ds, idx)
		done(nil)
	}
	if s.awstore != nil {
		s.awstore.IssueWrite(ds, idx, src, finish)
		return
	}
	finish(s.store.WriteObj(ds, idx, src))
}

// IssueWriteRanges implements farmem.RangeWriteStore: route the range
// write to the owning shard. A shard whose backend lacks the range verb
// — or a degraded one past its gate — transparently falls back to a
// full-object write (src always carries the whole image).
func (ss *ShardedStore) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	i := ss.ShardOf(ds, idx)
	s := ss.shards[i]
	if s.rwstore == nil {
		ss.IssueWrite(ds, idx, src, done)
		return
	}
	if !s.gate(ss.opts.ProbeEvery) {
		done(ss.degradedErr(i))
		return
	}
	shipped := 0
	for _, e := range exts {
		shipped += int(e.Len)
	}
	finish := func(err error) {
		if err != nil {
			ss.fail(s)
			done(fmt.Errorf("shardmap: shard %d range write: %w", i, err))
			return
		}
		ss.ok(s)
		s.writes.Inc()
		s.bytesOut.Add(uint64(shipped))
		s.noteObject(ds, idx)
		done(nil)
	}
	s.rwstore.IssueWriteRanges(ds, idx, src, exts, finish)
}

// ChaseCapable implements farmem.ChaseStore. A traversal program walks
// entirely on one backend, so the sharded store only offers offload
// when every shard speaks the chase verbs on its live session — a
// structure's pinned owner is decided by placement, not capability, and
// flipping capability per shard would make offload behaviour depend on
// which shard a structure happened to hash to.
func (ss *ShardedStore) ChaseCapable() bool {
	for _, s := range ss.shards {
		if s.chaser == nil || !s.chaser.ChaseCapable() {
			return false
		}
	}
	return true
}

// chaseShard resolves the single shard a traversal program may run on:
// the walk follows pointers server-side, so every object of the
// structure must live on that shard — true for PolicyPin structures
// (and trivially for a one-shard fleet). Striped structures are
// refused: their successors live on other shards, and the serving shard
// would zero-fill them mid-walk.
func (ss *ShardedStore) chaseShard(ds int) (int, error) {
	if ss.m.Shards() == 1 {
		return ss.ShardOf(ds, 0), nil
	}
	ss.policyMu.RLock()
	p := ss.policy[ds]
	ss.policyMu.RUnlock()
	if p != PolicyPin {
		return 0, fmt.Errorf("shardmap: chase on striped ds%d (traversal programs need a pinned structure)", ds)
	}
	return ss.m.OwnerDS(ds), nil
}

// Chase implements farmem.ChaseStore, routing the whole program to the
// pinned owner of its structure.
func (ss *ShardedStore) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	i, err := ss.chaseShard(int(req.DS))
	if err != nil {
		return rdma.ChaseResult{}, err
	}
	s := ss.shards[i]
	if s.chaser == nil {
		return rdma.ChaseResult{}, fmt.Errorf("shardmap: shard %d does not speak the chase verbs", i)
	}
	if !s.gate(ss.opts.ProbeEvery) {
		return rdma.ChaseResult{}, ss.degradedErr(i)
	}
	res, err := s.chaser.Chase(req)
	if err != nil {
		ss.fail(s)
		return res, fmt.Errorf("shardmap: shard %d chase: %w", i, err)
	}
	ss.ok(s)
	s.reads.Inc()
	for _, h := range res.Hops {
		s.bytesIn.Add(uint64(len(h.Data)))
	}
	return res, nil
}

// IssueChase implements farmem.AsyncChaseStore, riding the pinned
// shard's own pipelined chase window.
func (ss *ShardedStore) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	i, err := ss.chaseShard(int(req.DS))
	if err != nil {
		done(rdma.ChaseResult{}, err)
		return
	}
	s := ss.shards[i]
	if s.chaser == nil {
		done(rdma.ChaseResult{}, fmt.Errorf("shardmap: shard %d does not speak the chase verbs", i))
		return
	}
	if !s.gate(ss.opts.ProbeEvery) {
		done(ss.degradedChaseErr(i))
		return
	}
	s.chaser.IssueChase(req, func(res rdma.ChaseResult, err error) {
		if err != nil {
			ss.fail(s)
			done(res, fmt.Errorf("shardmap: shard %d chase: %w", i, err))
			return
		}
		ss.ok(s)
		s.reads.Inc()
		for _, h := range res.Hops {
			s.bytesIn.Add(uint64(len(h.Data)))
		}
		done(res, nil)
	})
}

// degradedChaseErr adapts degradedErr to the chase completion shape.
func (ss *ShardedStore) degradedChaseErr(i int) (rdma.ChaseResult, error) {
	return rdma.ChaseResult{}, ss.degradedErr(i)
}

// Ping implements farmem.Pinger at cluster scope: it succeeds while at
// least one shard answers, because the runtime's *global* breaker
// models total outage — partial outages are the per-shard breakers'
// job. Backends without a Ping method count as alive.
func (ss *ShardedStore) Ping() error {
	var firstErr error
	alive := false
	for i, s := range ss.shards {
		if s.pinger == nil {
			alive = true
			continue
		}
		if err := s.pinger.Ping(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shardmap: shard %d ping: %w", i, err)
			}
			continue
		}
		alive = true
	}
	if alive {
		return nil
	}
	return firstErr
}

// probeLoop pings open shards on a wall-clock interval; a successful
// ping arms that shard half-open so the next operation against it is
// the recovery trial. Probes run concurrently per shard (a dead
// backend's connect timeout must not delay another shard's recovery)
// but never overlap on the same shard.
func (ss *ShardedStore) probeLoop() {
	defer ss.wg.Done()
	t := time.NewTicker(ss.opts.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-ss.stop:
			return
		case <-t.C:
			for _, s := range ss.shards {
				if s.pinger == nil || !s.dom.TryProbe() {
					continue
				}
				ss.wg.Add(1)
				go func(s *shard) {
					defer ss.wg.Done()
					err := s.pinger.Ping()
					s.dom.ProbeDone()
					if err == nil {
						s.dom.ArmHalfOpen()
					}
				}(s)
			}
		}
	}
}

// Close stops the prober and closes every backend that implements
// io.Closer, returning the first error.
func (ss *ShardedStore) Close() error {
	var err error
	ss.closeOnce.Do(func() {
		close(ss.stop)
		ss.wg.Wait()
		for _, s := range ss.shards {
			if c, ok := s.store.(io.Closer); ok {
				if cerr := c.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
	})
	return err
}
