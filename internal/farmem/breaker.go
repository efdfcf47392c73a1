package farmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Circuit-breaker degradation to local memory.
//
// When the remote tier dies outright (server crash, partition), per-op
// retries only multiply the pain: every miss and every dirty eviction
// stalls through a full retry budget before failing. The breaker
// converts that into fail-fast degraded service: after
// Config.BreakerThreshold consecutive store failures it trips OPEN, and
// while open the runtime
//
//   - serves derefs of resident objects as usual (they never touch the
//     store),
//   - fails derefs of remote objects immediately with ErrDegraded,
//   - stops evicting dirty objects (their only copy is local now —
//     write-back has nowhere to go) and instead grows the remotable
//     budget up to a ceiling, pinning the working set in local memory,
//   - issues no prefetches.
//
// Recovery: a background prober pings the store (when it has a Ping
// method) on a wall-clock interval; a successful ping arms HALF-OPEN
// and the next runtime store operation is the trial. If the trial
// succeeds the breaker closes, the dirty working set is drained back to
// the far tier, and the remotable budget shrinks to its configured
// size. Without a Ping method the breaker arms half-open by elapsed
// wall time alone.

// ErrDegraded reports a remote-object access while the breaker is open:
// the far tier is unreachable and the object is not resident locally.
var ErrDegraded = errors.New("farmem: remote tier degraded (circuit breaker open)")

// Pinger is the optional liveness probe surface of a Store (the remote
// clients implement it); detected by type assertion.
type Pinger interface {
	Ping() error
}

// Recoverable is the optional recovery-signal surface of a Store whose
// failures are narrower than the whole tier (the sharded store). Its
// epoch advances every time a previously degraded slice of the store
// comes back; the runtime compares epochs after successful operations
// and drains the dirty write-backs stranded by the outage exactly once
// per recovery. Detected by type assertion.
type Recoverable interface {
	RecoveryEpoch() uint64
}

// DrainScoper is the optional drain-scoping surface of a Recoverable
// store. Without it, a recovery-epoch advance drains every dirty
// object and parked write-back in the cache — including objects owned
// by slices that never failed, and fail-fast attempts against slices
// still down. With it, the runtime asks per object:
//
//   - ShouldDrain: did the slice owning (ds, idx) recover after
//     sinceEpoch (and is it serving again)? Only then is the object's
//     write-back reissued on this epoch advance.
//   - Stranded: is the owning slice still refusing writes? Such
//     objects stay pinned (degradedDirty stays armed) for a future
//     epoch; objects on healthy slices that never failed are neither
//     drained nor counted as stranded.
//
// Detected by type assertion.
type DrainScoper interface {
	ShouldDrain(ds, idx int, sinceEpoch uint64) bool
	Stranded(ds, idx int) bool
}

// BreakerState enumerates the circuit-breaker states.
type BreakerState int32

// Breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Domain is one fault domain's circuit breaker: the closed / open /
// half-open state machine plus probe bookkeeping. The runtime drives one
// for the whole far tier; the sharded and replicated stores drive one
// per backend, so one dead backend degrades only the keys it owns.
//
// All methods are safe for concurrent use (the runtime's domain is
// shared with its background prober); every transition is cheap and
// rare. Transitions take the mutex; the state itself is an atomic, so
// State and the common (not open) Gate read it without locking — they
// sit on paths every deref of a chase-capable structure walks.
type Domain struct {
	mu       sync.Mutex
	state    atomic.Int32 // BreakerState; written under mu
	consec   int          // consecutive failures while closed
	openedAt time.Time    // wall clock of the last trip
	probing  bool
}

func (d *Domain) load() BreakerState { return BreakerState(d.state.Load()) }
func (d *Domain) set(s BreakerState) { d.state.Store(int32(s)) }

// Gate reports whether an operation may proceed; false means it must
// fail fast with ErrDegraded. While open it self-arms half-open after
// probeEvery when the store has no Ping method (pingable stores are
// armed by their prober instead).
func (d *Domain) Gate(probeEvery time.Duration, pingable bool) bool {
	if d.load() != BreakerOpen {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.load() != BreakerOpen {
		return true
	}
	if !pingable && time.Since(d.openedAt) >= probeEvery {
		d.set(BreakerHalfOpen)
		return true
	}
	return false
}

// OnSuccess records a successful operation; reports true when this was
// the half-open trial that closed the breaker (the caller then runs
// recovery).
func (d *Domain) OnSuccess() (recovered bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.consec = 0
	if d.load() == BreakerClosed {
		return false
	}
	d.set(BreakerClosed)
	return true
}

// OnFailure records a failed operation; reports true when this failure
// tripped the breaker open (a half-open trial failure re-opens without
// re-reporting). threshold <= 0 never trips.
func (d *Domain) OnFailure(threshold int) (tripped bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.consec++
	switch d.load() {
	case BreakerHalfOpen:
		d.set(BreakerOpen)
		d.openedAt = time.Now()
	case BreakerClosed:
		if threshold > 0 && d.consec >= threshold {
			d.set(BreakerOpen)
			d.openedAt = time.Now()
			return true
		}
	}
	return false
}

// ArmHalfOpen moves open -> half-open (called by a prober after a
// successful ping); the next operation is the recovery trial.
func (d *Domain) ArmHalfOpen() {
	d.mu.Lock()
	if d.load() == BreakerOpen {
		d.set(BreakerHalfOpen)
	}
	d.mu.Unlock()
}

// State returns the current breaker state.
func (d *Domain) State() BreakerState { return d.load() }

// TryProbe claims the probe slot when the domain is open and no probe
// is already running; the claimant must call ProbeDone afterwards.
func (d *Domain) TryProbe() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.load() != BreakerOpen || d.probing {
		return false
	}
	d.probing = true
	return true
}

// ProbeDone releases the probe slot claimed by TryProbe.
func (d *Domain) ProbeDone() {
	d.mu.Lock()
	d.probing = false
	d.mu.Unlock()
}

// breakerGate is the runtime's gate on its global domain.
func (r *Runtime) breakerGate() bool {
	return r.breaker.Gate(r.breakerProbe, r.breakerPingable)
}

// isOpen is the hot-path check the allocator and evictor use.
func (r *Runtime) breakerIsOpen() bool {
	return r.breaker != nil && r.breaker.State() != BreakerClosed
}

// BreakerState reports the breaker's current state (BreakerClosed when
// no breaker is configured).
func (r *Runtime) BreakerState() BreakerState {
	if r.breaker == nil {
		return BreakerClosed
	}
	return r.breaker.State()
}

// storeRead is the fault path's read through the breaker + retry
// wrapper.
func (r *Runtime) storeRead(d *DS, idx int, dst []byte) error {
	return r.storeOp(func() error { return r.store.ReadObj(d.ID, idx, dst) })
}

// storeWrite is the write-back path through the breaker + retry
// wrapper. Replaying a write-back is safe at this layer: write-backs
// carry the full object and the runtime is the single writer, so a
// duplicated (uncertain) write is idempotent — which is exactly why the
// transport refuses to make this call and the runtime gets to.
func (r *Runtime) storeWrite(d *DS, idx int, src []byte) error {
	return r.storeOp(func() error { return r.store.WriteObj(d.ID, idx, src) })
}

// storeOp runs one store operation under the breaker gate with up to
// Config.RetryMax reissues, charging each reissue to the simulated link
// (a wasted round trip plus backoff). A success that closes a half-open
// breaker triggers recovery: budget restore + dirty drain.
func (r *Runtime) storeOp(op func() error) error {
	b := r.breaker
	if b != nil && !r.breakerGate() {
		r.stats.DegradedOps++
		return ErrDegraded
	}
	var err error
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil {
			if b != nil && b.OnSuccess() {
				r.recoverRemote()
			}
			r.maybeDrainShards()
			return nil
		}
		if errors.Is(err, ErrDegraded) {
			// A sharded store refused the operation because the one shard
			// owning this object is down. The failure is already contained
			// to that shard's breaker: retrying cannot help (the gate fails
			// fast until the shard recovers) and counting it against the
			// global breaker would wrongly degrade the healthy shards too.
			r.stats.DegradedOps++
			return err
		}
		if attempt >= r.retryMax {
			break
		}
		r.stats.StoreRetries++
		r.link.Retry()
	}
	if b != nil && b.OnFailure(r.breakerThreshold) {
		r.stats.BreakerTrips++
		r.emit(EvBreakerTrip, -1, 0, false)
	}
	return err
}

// recoverRemote runs after the half-open trial closed the breaker:
// drain every dirty resident object back to the far tier, then shrink
// the remotable budget to its configured size (subsequent allocations
// evict back down to it). A failure mid-drain re-trips the breaker and
// aborts; the remaining dirty objects stay pinned until the next
// recovery. An object whose previous write-back is still staged is left
// dirty: its eviction orders the newer write after the staged one,
// where a drain write here could be overtaken by the older image.
func (r *Runtime) recoverRemote() {
	r.stats.BreakerRecoveries++
	r.emit(EvBreakerRecover, -1, 0, false)
	for _, d := range r.dss {
		for idx := range d.objs {
			obj := &d.objs[idx]
			if obj.state != objLocal || !obj.dirty || r.staged(d, idx) {
				continue
			}
			if err := r.writeResident(d, idx); err != nil {
				if errors.Is(err, ErrDegraded) {
					// The owning shard is still down; its objects stay
					// pinned until that shard's own recovery epoch.
					r.degradedDirty = true
					continue
				}
				return // re-tripped (or transient): stop, stay pinned
			}
			obj.dirty = false
			d.stats.WriteBacks++
			r.stats.DrainedWriteBacks++
		}
	}
	// Staged write-backs parked while the tier was down hold the only
	// copy of their objects outside any frame; reissue them too.
	if r.drainParkedWB() {
		r.degradedDirty = true
	}
	r.remotableBudget = r.baseRemotableBudget
}

// maybeDrainShards runs after every successful store operation: when the
// store's recovery epoch has advanced (a shard came back) and dirty
// objects were stranded by per-shard degradation, it drains them back to
// the far tier and shrinks the remotable budget once nothing is left
// pinned. Write-backs to shards that are still down fail fast with
// ErrDegraded and stay pinned for the next epoch.
func (r *Runtime) maybeDrainShards() {
	if r.recoverable == nil || r.draining {
		return
	}
	ep := r.recoverable.RecoveryEpoch()
	if ep == r.lastRecoveryEpoch {
		return
	}
	prev := r.lastRecoveryEpoch
	r.lastRecoveryEpoch = ep
	if !r.degradedDirty {
		return
	}
	r.draining = true
	defer func() { r.draining = false }()
	r.emit(EvBreakerRecover, -1, 0, false)
	// With a DrainScoper the drain touches only objects whose owning
	// slice recovered in (prev, ep]; objects on slices still down stay
	// pinned without a wasted fail-fast write, and objects on healthy
	// slices that were never stranded are not re-written at all.
	scope := r.drainScoper
	remain := false
	for _, d := range r.dss {
		for idx := range d.objs {
			obj := &d.objs[idx]
			if obj.state != objLocal || !obj.dirty || r.staged(d, idx) {
				continue
			}
			if scope != nil && !scope.ShouldDrain(d.ID, idx, prev) {
				if scope.Stranded(d.ID, idx) {
					remain = true
				}
				continue
			}
			if err := r.writeResident(d, idx); err != nil {
				remain = true
				continue
			}
			obj.dirty = false
			d.stats.WriteBacks++
			r.stats.DrainedWriteBacks++
		}
	}
	// Parked staged write-backs stranded by the same shard outage drain
	// through the identical fail-fast path, under the same scope.
	if r.drainParkedWBScoped(prev) {
		remain = true
	}
	r.degradedDirty = remain
	if !remain {
		r.remotableBudget = r.baseRemotableBudget
	}
}

// growBudgetFor implements degraded-mode allocation: while the breaker
// is open the remotable budget grows (up to the ceiling) instead of
// evicting — dirty evictions are impossible and clean evictions would
// shrink the only copy of the working set we can still serve.
func (r *Runtime) growBudgetFor(sz uint64) bool {
	if !r.breakerIsOpen() {
		return false
	}
	return r.growBudget(sz)
}

// growBudget grows the remotable budget up to the ceiling. It is the
// unconditional half of degraded-mode allocation, also used when the
// global breaker is closed but eviction found only victims whose dirty
// write-backs are refused by a degraded shard.
func (r *Runtime) growBudget(sz uint64) bool {
	want := r.remotableUsed + sz
	if want <= r.remotableBudget {
		return true
	}
	if want > r.breakerCeiling {
		return false
	}
	r.remotableBudget = want
	return true
}

// probeLoop is the background prober: while the breaker is open it
// pings the store every probeEvery; a successful ping arms half-open so
// the next runtime operation trials the recovery. It runs on wall
// clock, not virtual cycles — probing is real-world I/O, invisible to
// the simulation until the trial op succeeds.
func (r *Runtime) probeLoop(p Pinger) {
	t := time.NewTicker(r.breakerProbe)
	defer t.Stop()
	for {
		select {
		case <-r.breakerStop:
			return
		case <-t.C:
			if r.breaker.State() != BreakerOpen {
				continue
			}
			if p.Ping() == nil {
				r.breaker.ArmHalfOpen()
			}
		}
	}
}

// Close settles any staged write-backs still in flight (the far tier
// must hold every dirty payload once the runtime is gone) and releases
// background resources (the breaker prober). Safe to call multiple
// times; a Runtime without a breaker needs no Close but tolerates one.
func (r *Runtime) Close() error {
	var err error
	r.closeOnce.Do(func() {
		err = r.DrainWriteBacks()
		if r.breakerStop != nil {
			close(r.breakerStop)
		}
	})
	return err
}

// errDegradedDeref wraps ErrDegraded with the faulting object for
// diagnostics while keeping errors.Is(err, ErrDegraded) true.
func errDegradedDeref(ds, idx int) error {
	return fmt.Errorf("farmem: deref ds%d[%d]: %w", ds, idx, ErrDegraded)
}
