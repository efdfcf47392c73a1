package farmem

import "cards/internal/rdma"

// Server-side traversal offload (the CHASEBATCH verb, paper §4.2's
// pointer-chase pattern taken to its logical end). A K-hop pointer chase
// is the one access pattern a pipelined window cannot help: each hop's
// address comes out of the previous object, so K hops cost K dependent
// round trips even with every read in flight. When the far tier speaks
// the chase verbs, the runtime instead ships a compact traversal
// program — the data structure, a start object, the next-pointer field
// offset, and a hop budget — and receives the whole path in one round
// trip.
//
// The returned hops land in a staging area (chaseStaged) the deref slow
// path consults before paying a remote fetch, so the traversal's
// subsequent derefs complete at memory speed. Coherence invariants:
//
//   - Only hops whose object is remote AND has no staged write-back are
//     staged: for any other state the local tier holds fresher bytes.
//   - A dirty eviction (write-back) of any object of the structure bumps
//     the structure's chase generation; in-flight chase results issued
//     under an older generation are dropped wholesale rather than risk
//     staging bytes the server read before the write landed.
//   - An eviction of an object with a staged chase entry drops the entry
//     (the frame's bytes were newer if the object was dirty).
//
// Chases are always issued at full fidelity (Mask == 0): a staged hop
// must be byte-complete to serve an arbitrary later deref. The wire
// protocol's field-filter mask exists for clients that provably read
// only the filtered fields (see rdma.ChaseReq); the runtime cannot prove
// that for general derefs, so it never filters.

// ChaseStore is the synchronous traversal-offload surface of a far tier
// (remote.Resilient, shardmap.ShardedStore, replica.Store). Capability
// is advisory: it can flip with the tier's health (a dead client, a
// failover), so callers must still handle errors by degrading to per-hop
// reads.
type ChaseStore interface {
	ChaseCapable() bool
	Chase(req rdma.ChaseReq) (rdma.ChaseResult, error)
}

// AsyncChaseStore is a ChaseStore that can additionally issue a chase
// without blocking the caller; done is invoked exactly once — possibly
// on another goroutine — with a caller-owned result, and must not block.
// The runtime detects the capability by type assertion and only offloads
// through stores that support async issue (a blocking chase on the
// prefetch path would stall the application thread it exists to unblock).
type AsyncChaseStore interface {
	ChaseStore
	IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error))
}

// DefaultChaseHops is the hop budget a chase prefetcher ships per
// program when the caller does not choose one.
const DefaultChaseHops = 16

// pendingChase is one in-flight traversal program. Like pendingFetch,
// the store's completion callback fills exactly one slot of done and the
// single-threaded runtime harvests it with wait/ready.
type pendingChase struct {
	d        *DS
	start    int
	gen      uint64 // d.chaseGen at issue; stale results are dropped
	bytes    uint64 // inflightBytes charged (hop budget x object size)
	readyAt  uint64 // virtual settle cycle (link.FetchAsync)
	res      rdma.ChaseResult
	done     chan error
	err      error
	settled  bool
	consumed bool // settleChase ran; guards double-accounting
}

func (p *pendingChase) wait() error {
	if !p.settled {
		p.err = <-p.done
		p.settled = true
	}
	return p.err
}

func (p *pendingChase) ready() bool {
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

// ChaseReady reports whether traversal offload is currently usable for
// d: the far tier speaks the chase verbs on its live session, the
// breaker allows speculation, and the structure is a single-successor
// linked structure (the only shape a one-offset traversal program can
// describe). Prefetchers consult it to pick between offload and their
// per-hop fallback.
func (r *Runtime) ChaseReady(d *DS) bool {
	return r.chaser != nil && !r.breakerIsOpen() &&
		d.Meta.Recursive && len(d.Meta.PtrOffsets) == 1 &&
		r.chaser.ChaseCapable()
}

// chaseNextOff is the next-pointer offset a traversal program for d
// carries. Objects pack ObjSize/ElemSize elements, and the chain walks
// the elements in order — so the cross-OBJECT edge is the successor
// field of the last element packed into each object; every earlier
// element's successor stays inside the object. A program chasing the
// first element's field would visit the same object over and over.
func chaseNextOff(d *DS) int {
	off := d.Meta.PtrOffsets[0]
	if es := d.Meta.ElemSize; es > 0 && d.Meta.ObjSize >= 2*es {
		off += (d.Meta.ObjSize/es - 1) * es
	}
	return off
}

// ChasePrefetch offloads the traversal ahead of object idx of d: it
// reads the successor pointer of the (resident) object and, when the
// successor is remote and not already covered, ships a traversal program
// with the given hop budget. It reports whether the traversal ahead is
// covered by the offload machinery — false means the caller should fall
// back to per-hop prefetching.
func (r *Runtime) ChasePrefetch(d *DS, idx, hops int) bool {
	if !r.ChaseReady(d) {
		return false
	}
	word, ok := r.ObjectWord(d, idx, chaseNextOff(d))
	if !ok || !IsTagged(word) || DSOf(word) != d.ID {
		// End of chain, a cross-structure edge, or the object is not
		// resident: nothing a traversal program from here can cover.
		return false
	}
	off := OffOf(word)
	if off >= d.size {
		return false
	}
	start := int(off >> d.objShift)
	if d.objs[start].state != objRemote {
		return true // successor already local or arriving: covered
	}
	key := wbKey{d.ID, start}
	if _, staged := r.chaseStaged[key]; staged {
		return true // a previous chase already delivered it
	}
	if _, inflight := r.chaseStarts[key]; inflight {
		return true // a chase from here is already on the wire
	}
	if _, wb := r.wbPending[key]; wb {
		// The successor's freshest bytes sit in a staged write-back; the
		// deref path serves it from staging, and a chase through it could
		// observe the pre-write image.
		return false
	}
	return r.issueChase(d, start, hops)
}

// issueChase ships one traversal program starting at a remote object.
func (r *Runtime) issueChase(d *DS, start, hops int) bool {
	if hops <= 0 {
		hops = DefaultChaseHops
	}
	// The staged path and the in-flight programs together must not crowd
	// the cache: cap both at half the remotable budget, like prefetches.
	// Rather than starve when the full window does not fit (a tight budget
	// with per-hop prefetches already in flight), shrink the program to
	// the available headroom — a shorter chase still collapses its hops
	// into one round trip. Below two hops the program degenerates into a
	// plain prefetch read and is not worth a verb.
	objSize := uint64(d.Meta.ObjSize)
	half := r.remotableBudget / 2
	r.harvestChases()
	avail := uint64(0)
	if r.inflightBytes < half {
		avail = half - r.inflightBytes
	}
	if staged := uint64(0); r.chaseStagedBytes < half {
		staged = half - r.chaseStagedBytes
		if staged < avail {
			avail = staged
		}
	} else {
		avail = 0
	}
	if maxHops := avail / objSize; uint64(hops) > maxHops {
		if maxHops < 2 {
			return false
		}
		hops = int(maxHops)
	}
	bytes := uint64(hops) * objSize
	rootMine := r.beginRoot()
	p := &pendingChase{
		d:     d,
		start: start,
		gen:   d.chaseGen,
		bytes: bytes,
		done:  make(chan error, 1),
	}
	req := rdma.ChaseReq{
		DS:      uint32(d.ID),
		Start:   uint32(start),
		ObjSize: uint32(d.Meta.ObjSize),
		NextOff: uint32(chaseNextOff(d)),
		Hops:    uint32(hops),
	}
	r.chaser.IssueChase(req, func(res rdma.ChaseResult, err error) {
		p.res = res
		p.done <- err
	})
	// One round trip carries the whole window's payload.
	p.readyAt = r.link.FetchAsync(int(bytes))
	r.chaseStarts[wbKey{d.ID, start}] = p
	r.chaseInflight = append(r.chaseInflight, p)
	r.inflightBytes += bytes
	r.stats.ChasesIssued++
	d.stats.PrefetchIssued++
	r.emit(EvPrefetch, d.ID, start, false)
	r.endRoot(rootMine)
	return true
}

// harvestChases opportunistically settles every in-flight chase whose
// completion has arrived, staging the returned path. Non-blocking.
// Settling can issue a continuation program (which appends to the
// in-flight list) and issueChase harvests to reclaim headroom, so each
// program is unlinked before it settles and reentrant calls are no-ops.
func (r *Runtime) harvestChases() {
	if r.chaseHarvesting || len(r.chaseInflight) == 0 {
		return
	}
	r.chaseHarvesting = true
	for i := 0; i < len(r.chaseInflight); i++ {
		p := r.chaseInflight[i]
		if r.clock.Now() < p.readyAt || !p.ready() {
			continue
		}
		last := len(r.chaseInflight) - 1
		r.chaseInflight[i] = r.chaseInflight[last]
		r.chaseInflight[last] = nil
		r.chaseInflight = r.chaseInflight[:last]
		i--
		r.settleChase(p)
	}
	r.chaseHarvesting = false
}

// settleChase consumes one completed chase: release its in-flight
// charge, validate it against the structure's chase generation, and
// stage every hop the coherence invariants allow. A follow-up program is
// issued when the server stopped on the hop budget with the chain still
// live, so a long traversal keeps exactly one window on the wire.
func (r *Runtime) settleChase(p *pendingChase) {
	if p.consumed {
		return
	}
	p.consumed = true
	key := wbKey{p.d.ID, p.start}
	if r.chaseStarts[key] == p {
		delete(r.chaseStarts, key)
	}
	r.inflightBytes -= p.bytes
	if p.err != nil {
		// Transport trouble or a downgraded session: the traversal
		// degrades to per-hop reads (the deref path never depended on
		// this result arriving).
		r.stats.ChaseFallbacks++
		return
	}
	d := p.d
	if d.chaseGen != p.gen {
		// A write-back landed while the program was in flight: the server
		// may have walked a pre-write image. Drop the whole path.
		r.stats.ChaseStale++
		return
	}
	for _, h := range p.res.Hops {
		idx := int(h.Idx)
		if idx < 0 || idx >= len(d.objs) || len(h.Data) != d.Meta.ObjSize {
			continue
		}
		if d.objs[idx].state != objRemote {
			continue // local tier holds fresher (or equal) bytes
		}
		hkey := wbKey{d.ID, idx}
		if _, wb := r.wbPending[hkey]; wb {
			continue // staged write-back is fresher
		}
		if _, dup := r.chaseStaged[hkey]; dup {
			continue
		}
		// The hop data is caller-owned (the transport deep-copied it out
		// of the reply frame), so it stages without another copy.
		r.chaseStaged[hkey] = h.Data
		r.chaseStagedBytes += uint64(len(h.Data))
		r.stats.ChaseHopsStaged++
	}
	if p.res.Status == rdma.ChaseHops {
		// Budget spent, chain still live: keep the pipeline primed by
		// chasing on from the first unvisited node.
		word := p.res.Final
		if IsTagged(word) && DSOf(word) == d.ID && r.ChaseReady(d) {
			off := OffOf(word)
			if off < d.size {
				next := int(off >> d.objShift)
				nkey := wbKey{d.ID, next}
				_, staged := r.chaseStaged[nkey]
				_, inflight := r.chaseStarts[nkey]
				_, wb := r.wbPending[nkey]
				if !staged && !inflight && !wb && d.objs[next].state == objRemote {
					r.issueChase(d, next, int(p.bytes/uint64(d.Meta.ObjSize)))
				}
			}
		}
	}
}

// derefFromChase serves the re-localization of a remote object from the
// chase staging area, or by waiting out an in-flight chase that started
// exactly at this object (the common case when a traversal catches up
// with its offload window). Returns (false, nil) when the chase
// machinery has nothing for this object.
func (r *Runtime) derefFromChase(d *DS, idx int) (bool, error) {
	if r.chaser == nil {
		return false, nil
	}
	key := wbKey{d.ID, idx}
	r.harvestChases()
	b, ok := r.chaseStaged[key]
	if !ok {
		p, inflight := r.chaseStarts[key]
		if !inflight {
			return false, nil
		}
		// The chase covering this object is still on the wire: wait it
		// out — the remaining flight time is cheaper than a round trip.
		// Unlink before settling: settle can issue a continuation, which
		// harvests, and a still-linked settled program would settle twice.
		start := r.clock.Now()
		r.link.WaitUntil(p.readyAt)
		p.wait()
		r.removeChaseInflight(p)
		r.settleChase(p)
		d.pfWaitHist.Observe(r.clock.Now() - start)
		b, ok = r.chaseStaged[key]
		if !ok {
			return false, nil
		}
	}
	delete(r.chaseStaged, key)
	r.chaseStagedBytes -= uint64(len(b))
	frame, err := r.allocFrame(d, idx)
	if err != nil {
		return false, err
	}
	copy(r.arena.Bytes(frame, d.Meta.ObjSize), b)
	obj := &d.objs[idx]
	obj.frame = frame
	obj.state = objLocal
	r.stats.ChaseStagingHits++
	d.stats.PrefetchHits++
	r.emit(EvPrefetchHit, d.ID, idx, false)
	return true, nil
}

// removeChaseInflight drops one settled program from the in-flight list
// (harvestChases compacts the list itself; this is for the targeted
// settle on the deref wait path).
func (r *Runtime) removeChaseInflight(p *pendingChase) {
	for i, q := range r.chaseInflight {
		if q == p {
			last := len(r.chaseInflight) - 1
			r.chaseInflight[i] = r.chaseInflight[last]
			r.chaseInflight[last] = nil
			r.chaseInflight = r.chaseInflight[:last]
			return
		}
	}
}

// invalidateChase drops the staged chase entry of one object (called on
// eviction: the evicted frame's bytes supersede the staged snapshot).
func (r *Runtime) invalidateChase(d *DS, idx int) {
	if r.chaseStaged == nil {
		return
	}
	key := wbKey{d.ID, idx}
	if b, ok := r.chaseStaged[key]; ok {
		delete(r.chaseStaged, key)
		r.chaseStagedBytes -= uint64(len(b))
	}
}

// ChaseStagedEntries reports the number of chase-delivered objects
// currently staged for deref consumption.
func (r *Runtime) ChaseStagedEntries() int { return len(r.chaseStaged) }
