package farmem

import (
	"errors"

	"cards/internal/rdma"
)

// Asynchronous batched write-back pipeline.
//
// On the synchronous path a dirty eviction pays a full store round trip
// inside the deref that triggered it: the application thread blocks on
// WriteObj before the freed frame can be reused. With a store that
// implements AsyncWriteStore (the pipelined remote client, the sharded
// store), the runtime instead
//
//   - copies the dirty payload into a pooled staging buffer,
//   - frees the frame immediately (the eviction completes at memory
//     speed),
//   - issues the write asynchronously; the transport coalesces staged
//     writes from many evictions into batched write doorbells.
//
// Invariants the staging map enforces:
//
//   - Read-your-writes: while a write-back is staged, the staging buffer
//     holds the freshest bytes. A deref of the object is served by
//     copying staging -> frame (derefFromStaging), never by a remote
//     read that could observe the pre-write value; prefetchers skip such
//     objects for the same reason.
//   - Per-object write ordering: the transport may reorder independent
//     write batch frames (they execute on a worker pool), so the runtime
//     never has two unacknowledged writes of one object in flight — a
//     re-eviction waits out the object's previous staged write first.
//   - Never silently retry a write: an uncertain or failed async write
//     is reissued *here*, synchronously, where the full-object payload
//     makes the replay idempotent (see storeWrite). If even the reissue
//     is refused (degraded shard), the entry parks: the staging buffer
//     then holds the only durable copy until a recovery drain.
//
// Memory is bounded by Config.WriteBackBudget: once staged-but-unsettled
// payload exceeds it, the next dirty eviction blocks on the oldest
// staged write (backpressure), after first harvesting any completions
// that arrived opportunistically.

// AsyncWriteStore is a Store that can additionally issue writes without
// blocking the caller. IssueWrite starts persisting src and returns
// immediately; done is invoked exactly once — possibly on another
// goroutine, possibly before IssueWrite returns — when the write is
// durable or has failed, and must not block. src must remain valid and
// unmodified until done fires. Detected by type assertion, so plain
// Stores keep the synchronous eviction path unchanged.
type AsyncWriteStore interface {
	Store
	IssueWrite(ds, idx int, src []byte, done func(error))
}

// wbKey identifies one staged object.
type wbKey struct {
	ds, idx int
}

// pendingWB is one staged write-back: the payload snapshot, its
// completion channel, and the virtual cycle at which the transfer
// settles. Like pendingFetch, the store's completion callback fills
// exactly one slot of done and the single-threaded runtime harvests it.
type pendingWB struct {
	key  wbKey
	d    *DS
	idx  int
	buf  []byte // pooled staging snapshot of the dirty payload
	size int
	// exts, when non-nil, are the modified ranges within buf: the write
	// was issued as a range write (dirtyrange.go). buf still holds the
	// FULL object so a synchronous reissue replays the whole image.
	exts    []rdma.Extent
	doneAt  uint64 // virtual settle cycle (link.WriteBackAsync)
	done    chan error
	err     error
	settled bool
	// parked marks an entry whose write — async and sync reissue both —
	// was refused (degraded shard): buf holds the only durable copy and
	// the entry waits for a recovery drain.
	parked bool
}

// wait blocks until the write completes and returns its error.
func (p *pendingWB) wait() error {
	if !p.settled {
		p.err = <-p.done
		p.settled = true
	}
	return p.err
}

// ready polls for completion without blocking.
func (p *pendingWB) ready() bool {
	if p.settled {
		return true
	}
	select {
	case err := <-p.done:
		p.err = err
		p.settled = true
		return true
	default:
		return false
	}
}

// getWBBuf returns a staging buffer of exactly n bytes from the
// runtime's free list (single-threaded, so no locking). Buffers are
// pooled per size — data structures have fixed object sizes, so the
// lists converge to a handful of classes.
func (r *Runtime) getWBBuf(n int) []byte {
	if free := r.wbFree[n]; len(free) > 0 {
		b := free[len(free)-1]
		r.wbFree[n] = free[:len(free)-1]
		return b
	}
	return make([]byte, n)
}

// putWBBuf parks a staging buffer for reuse, keeping at most a small
// number of spares per size class.
func (r *Runtime) putWBBuf(b []byte) {
	if b == nil {
		return
	}
	if free := r.wbFree[len(b)]; len(free) < 32 {
		r.wbFree[len(b)] = append(free, b)
	}
}

// releaseWB removes a settled entry from the pending set and recycles
// its staging buffer. Order-list entries are dropped lazily (validity is
// rechecked against the map on every scan).
func (r *Runtime) releaseWB(p *pendingWB) {
	delete(r.wbPending, p.key)
	r.wbBytes -= uint64(p.size)
	r.putWBBuf(p.buf)
	p.buf = nil
	r.putExtBuf(p.exts)
	p.exts = nil
}

// settleWB consumes one staged write's completion (blocking if needed).
// On failure it records the fault against the breaker — unless the
// failure is a contained per-shard degradation — and reissues the write
// synchronously from the staging snapshot (the idempotent replay the
// transport refuses to do). Returns true when the entry was released,
// false when it parked on a degraded shard.
func (r *Runtime) settleWB(p *pendingWB) bool {
	if err := p.wait(); err == nil {
		r.releaseWB(p)
		return true
	}
	if r.breaker != nil && !errors.Is(p.err, ErrDegraded) && r.breaker.OnFailure(r.breakerThreshold) {
		r.stats.BreakerTrips++
		r.emit(EvBreakerTrip, -1, 0, false)
	}
	r.stats.WriteBackReissues++
	if err := r.storeWrite(p.d, p.idx, p.buf); err == nil {
		r.link.WriteBack(p.size)
		r.releaseWB(p)
		return true
	}
	p.parked = true
	r.degradedDirty = true
	return false
}

// harvestWriteBacks opportunistically settles every staged write whose
// completion has already arrived, without blocking. Called before the
// budget check so completed writes never cause a backpressure stall.
//
// The wbBusy guard makes order-list scans non-reentrant: settleWB's
// synchronous reissue runs through storeOp, whose recovery hooks call
// drainParkedWB — which must not rebuild wbOrder under an active scan.
func (r *Runtime) harvestWriteBacks() {
	if r.wbBusy {
		return
	}
	r.wbBusy = true
	defer func() { r.wbBusy = false }()
	kept := r.wbOrder[:0]
	for _, p := range r.wbOrder {
		if r.wbPending[p.key] != p {
			continue // settled earlier; lazy order-list cleanup
		}
		if !p.parked && r.clock.Now() >= p.doneAt && p.ready() {
			if r.settleWB(p) {
				continue
			}
		}
		kept = append(kept, p)
	}
	r.wbOrder = kept
}

// waitOldestWB blocks on the oldest unsettled staged write to free
// budget. Returns false when nothing can be waited for (only parked
// entries remain, or nothing is pending).
func (r *Runtime) waitOldestWB() bool {
	for _, p := range r.wbOrder {
		if r.wbPending[p.key] != p || p.parked {
			continue
		}
		r.stats.WriteBackStalls++
		r.link.WaitUntil(p.doneAt)
		r.settleWB(p)
		return true
	}
	return false
}

// tryAsyncWriteBack stages the dirty payload of (d, idx) for
// asynchronous write-back and reports whether it did; false sends the
// eviction down the synchronous path (no async store, breaker not
// closed, budget unfree-able, or the object's previous write parked).
func (r *Runtime) tryAsyncWriteBack(d *DS, idx int) bool {
	if r.awstore == nil || r.breakerIsOpen() {
		return false
	}
	key := wbKey{d.ID, idx}
	if p, ok := r.wbPending[key]; ok {
		// Per-object ordering: the transport may reorder independent
		// batches, so wait out this object's previous write before
		// putting a newer one on the wire.
		if p.parked {
			return false
		}
		r.stats.WriteBackStalls++
		r.link.WaitUntil(p.doneAt)
		if !r.settleWB(p) {
			return false
		}
	}
	sz := d.Meta.ObjSize
	r.harvestWriteBacks()
	for r.wbBytes+uint64(sz) > r.wbBudget {
		if !r.waitOldestWB() {
			return false
		}
	}
	obj := &d.objs[idx]
	buf := r.getWBBuf(sz)
	copy(buf, r.arena.Bytes(obj.frame, sz))
	exts := r.rangeExtents(d, obj)
	p := &pendingWB{key: key, d: d, idx: idx, buf: buf, size: sz, exts: exts,
		done: make(chan error, 1)}
	if exts != nil {
		// Only the extent bytes ride the wire; the virtual link charge
		// shrinks with them.
		shipped := 0
		for _, e := range exts {
			shipped += int(e.Len)
		}
		p.doneAt = r.link.WriteBackAsync(shipped)
		r.stats.RangeWriteBacks++
		r.stats.RangeBytesSaved += uint64(sz - shipped)
	} else {
		p.doneAt = r.link.WriteBackAsync(sz)
	}
	r.wbPending[key] = p
	r.wbOrder = append(r.wbOrder, p)
	r.wbBytes += uint64(sz)
	r.stats.StagedWriteBacks++
	if exts != nil {
		r.rwstore.IssueWriteRanges(d.ID, idx, buf, exts, func(err error) { p.done <- err })
	} else {
		r.awstore.IssueWrite(d.ID, idx, buf, func(err error) { p.done <- err })
	}
	return true
}

// derefFromStaging serves the re-localization of an object whose
// freshest bytes sit in a staged write-back buffer (read-your-writes
// coherence). No network, no breaker gate — the bytes are local.
// Returns (false, nil) when the object has no staged write.
func (r *Runtime) derefFromStaging(d *DS, idx int) (bool, error) {
	key := wbKey{d.ID, idx}
	p, ok := r.wbPending[key]
	if !ok {
		return false, nil
	}
	// Snapshot the payload before allocFrame: evicting to make room can
	// settle (and recycle) this very entry through write-back
	// backpressure or a recovery drain.
	sz := d.Meta.ObjSize
	tmp := r.getWBBuf(sz)
	copy(tmp, p.buf)
	frame, err := r.allocFrame(d, idx)
	if err != nil {
		r.putWBBuf(tmp)
		return false, err
	}
	copy(r.arena.Bytes(frame, sz), tmp)
	r.putWBBuf(tmp)
	obj := &d.objs[idx]
	obj.frame = frame
	obj.state = objLocal
	if q, live := r.wbPending[key]; live && q == p && p.parked {
		// The parked staging copy was the only durable copy; the frame
		// takes over that role, so the object re-localizes dirty and the
		// staging budget is released. The remote base predates the parked
		// write, so the dirty region is unknown: full-object write-back.
		r.releaseWB(p)
		obj.dirty = true
		obj.rect = dirtyRect{full: true}
	}
	r.stats.WriteBackStagingHits++
	r.emit(EvMaterialize, d.ID, idx, false)
	return true, nil
}

// drainParkedWB reissues every parked staged write (called once a
// recovery epoch says their shards may be back). Returns true when some
// entries are still refused and remain parked.
func (r *Runtime) drainParkedWB() (remain bool) {
	return r.drainParked(nil, 0)
}

// drainParkedWBScoped is drainParkedWB restricted by the store's
// DrainScoper (when it has one): only entries whose owning slice
// recovered after sinceEpoch are reissued; the rest stay parked
// without a fail-fast attempt.
func (r *Runtime) drainParkedWBScoped(sinceEpoch uint64) (remain bool) {
	return r.drainParked(r.drainScoper, sinceEpoch)
}

func (r *Runtime) drainParked(scope DrainScoper, sinceEpoch uint64) (remain bool) {
	if r.wbBusy {
		// An order-list scan is active above us; leave its list alone and
		// report work remaining so degradedDirty stays armed.
		return true
	}
	r.wbBusy = true
	defer func() { r.wbBusy = false }()
	kept := r.wbOrder[:0]
	for _, p := range r.wbOrder {
		if r.wbPending[p.key] != p {
			continue
		}
		if !p.parked {
			kept = append(kept, p)
			continue
		}
		if scope != nil && !scope.ShouldDrain(p.d.ID, p.idx, sinceEpoch) {
			// Parked entries are stranded by definition; keep this one
			// armed for a future recovery epoch.
			remain = true
			kept = append(kept, p)
			continue
		}
		if err := r.storeWrite(p.d, p.idx, p.buf); err != nil {
			remain = true
			kept = append(kept, p)
			continue
		}
		r.link.WriteBack(p.size)
		r.stats.DrainedWriteBacks++
		r.releaseWB(p)
	}
	r.wbOrder = kept
	return remain
}

// DrainWriteBacks settles every staged write-back, blocking for
// in-flight ones and reissuing parked ones. It is the write-barrier a
// caller needs before treating the far tier as authoritative (benchmark
// epochs, checksum verification, Close). Entries whose reissue is still
// refused stay parked; the first such error is returned.
func (r *Runtime) DrainWriteBacks() error {
	if r.wbBusy {
		return nil
	}
	r.wbBusy = true
	defer func() { r.wbBusy = false }()
	var firstErr error
	order := r.wbOrder
	kept := order[:0]
	for _, p := range order {
		if r.wbPending[p.key] != p {
			continue
		}
		if !p.parked {
			r.link.WaitUntil(p.doneAt)
			if r.settleWB(p) {
				continue
			}
		}
		// Parked (possibly just now): one more synchronous attempt — a
		// recovered shard accepts it and the entry retires.
		r.stats.WriteBackReissues++
		if err := r.storeWrite(p.d, p.idx, p.buf); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			kept = append(kept, p)
			continue
		}
		r.link.WriteBack(p.size)
		r.releaseWB(p)
	}
	r.wbOrder = kept
	return firstErr
}

// StagedWriteBackBytes reports the staged-but-unsettled payload bytes
// currently held by the write-back pipeline.
func (r *Runtime) StagedWriteBackBytes() uint64 { return r.wbBytes }

// StagedWriteBackEntries reports the number of staged write-backs
// (in flight or parked).
func (r *Runtime) StagedWriteBackEntries() int { return len(r.wbPending) }
