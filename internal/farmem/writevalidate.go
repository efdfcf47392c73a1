package farmem

import "fmt"

// Write-validate: compiler-proven store-only misses skip the fetch.
//
// A store-only write guard (ir.Instr.StoreOnly, Runtime.GuardStore)
// vouches for exactly one store that writes exactly its span [GLo, GHi):
// no load and no second store reuses the guard. When such a guard
// misses on a remote object, the bytes the far tier holds are not needed
// to execute the store — the runtime allocates the frame without
// fetching, records the span as the object's dirty rectangle and marks
// the object partial (the classic write-validate cache policy, applied
// where the compiler proves it safe).
//
// Contract of a partial object:
//
//   - It is resident and dirty, and exactly the bytes inside its dirty
//     rectangle are valid; everything else lives only on the far tier.
//     A later store-only guard may grow the rectangle when the union
//     stays an exact rectangle (exactExtension); once it covers the whole
//     object the image is whole and the mark clears.
//   - Every other consumer that needs the full image goes through one
//     helper, fillImage: read the far tier's image (with any staged
//     write-back of the object overlaid, readImage), overlay the
//     rectangle, count the read as a remote fetch. The consumers are a
//     non-extending access, ObjectWord outside the rectangle (chase and
//     prefetcher successor reads), the synchronous write-back (taken
//     when the rectangle has more rows than the wire's extent cap), the
//     breaker recovery drain (all through fill), and the reissue of a
//     staged partial write-back (reissueWB).
//   - Its write-back ships the rectangle as exact extents over the range
//     path (tryAsyncWriteBack). The staged entry stays partial: a reissue
//     of a failed or parked one completes it first, and a deref of a
//     parked one turns it back into a partial frame without network
//     (derefFromStaging); a deref while it is in flight reads the far
//     tier with its extents overlaid.
//
// Eligibility is a property of the far tier: its range write must splice
// the extents unconditionally (remote.ObjectStore.WriteRange), so a
// partial image never has to stand in for a full one. The replicated
// store's epoch splice NAKs a stale base (remote.ErrStaleRangeBase) and
// repairs with full images a partial object does not have; the runtime
// sees capabilities only through method sets, where the replicated and
// the sharded store look alike, so every Recoverable (multi-backend)
// store is excluded.

// FillError reports that a write-validated object could not be
// completed: the far tier's image of the bytes the program did not write
// was unreachable. The written bytes stay resident (the object remains
// partial and dirty), so a retry after the far tier recovers loses
// nothing. Unwrap exposes the store error (ErrDegraded included).
type FillError struct {
	DS, Idx int
	Err     error
}

func (e *FillError) Error() string {
	return fmt.Sprintf("farmem: fill of write-validated ds%d[%d]: %v", e.DS, e.Idx, e.Err)
}

func (e *FillError) Unwrap() error { return e.Err }

// spanRect maps the written byte span [a, b) of one object of d to the
// dirty rectangle it fills exactly; ok is false when no rectangle equals
// the span (it crosses element rows without covering them whole, lies
// outside the object, or the object is too large for the rect's fields).
func spanRect(d *DS, a, b int) (rc dirtyRect, ok bool) {
	if d.Meta.ObjSize > 0xFFFF || a < 0 || b <= a || b > d.Meta.ObjSize {
		return rc, false
	}
	elem := rectElem(d)
	e0, e1 := a/elem, (b-1)/elem
	f0, f1 := a-e0*elem, b-e0*elem
	if e0 != e1 {
		if a%elem != 0 || b%elem != 0 {
			return rc, false
		}
		f0, f1 = 0, elem
	}
	return dirtyRect{eLo: uint16(e0), eHi: uint16(e1), fLo: uint16(f0), fHi: uint16(f1)}, true
}

// exactExtension reports whether a store writing [a, b) of obj leaves
// its written bytes an exact rectangle: the span is one on its own, and
// (when obj already holds written bytes) the union with the current
// rectangle is one too — the span lies inside it, or extends it along
// one axis without a gap.
func (r *Runtime) exactExtension(d *DS, obj *FarObj, a, b int) bool {
	s, ok := spanRect(d, a, b)
	if !ok {
		return false
	}
	if !obj.dirty {
		return true
	}
	c := obj.rect
	switch {
	case c.full:
		return false
	case s.eLo >= c.eLo && s.eHi <= c.eHi && s.fLo >= c.fLo && s.fHi <= c.fHi:
		return true // inside
	case s.fLo == c.fLo && s.fHi == c.fHi:
		return int(s.eLo) <= int(c.eHi)+1 && int(s.eHi)+1 >= int(c.eLo) // rows touch
	case s.eLo == c.eLo && s.eHi == c.eHi:
		return s.fLo <= c.fHi && s.fHi >= c.fLo // fields touch
	}
	return false
}

// rectCovers reports whether rc spans every byte of an object of d.
func rectCovers(d *DS, rc dirtyRect) bool {
	if rc.full {
		return true
	}
	elem := rectElem(d)
	return rc.eLo == 0 && int(rc.eHi)+1 == d.Meta.ObjSize/elem &&
		rc.fLo == 0 && int(rc.fHi) == elem
}

// rectHolds reports whether the byte range [a, b) of an object of d lies
// inside rc.
func rectHolds(d *DS, rc dirtyRect, a, b int) bool {
	s, ok := spanRect(d, a, b)
	return ok && !rc.full && s.eLo >= rc.eLo && s.eHi <= rc.eHi && s.fLo >= rc.fLo && s.fHi <= rc.fHi
}

// overlayRect copies the bytes inside rc from src to dst (both full
// object images of d).
func overlayRect(d *DS, rc dirtyRect, dst, src []byte) {
	elem := rectElem(d)
	if rc.fLo == 0 && int(rc.fHi) == elem {
		lo, hi := int(rc.eLo)*elem, (int(rc.eHi)+1)*elem
		copy(dst[lo:hi], src[lo:hi])
		return
	}
	for e := int(rc.eLo); e <= int(rc.eHi); e++ {
		lo, hi := e*elem+int(rc.fLo), e*elem+int(rc.fHi)
		copy(dst[lo:hi], src[lo:hi])
	}
}

// readImage fills dst with the object's image as the far tier will hold
// it once the object's staged write-back (if any) lands: a staged full
// image is the freshest copy and serves without network; otherwise the
// far tier is read and a staged partial write's extents are overlaid —
// the read may race that write, and the extents are newer either way.
// fetched reports whether the far tier was read.
func (r *Runtime) readImage(d *DS, idx int, dst []byte) (fetched bool, err error) {
	p := r.wbPending[wbKey{d.ID, idx}]
	if p != nil && !p.partial {
		copy(dst, p.buf)
		return false, nil
	}
	var snap []byte
	var rc dirtyRect
	if p != nil {
		// Snapshot first: the read's recovery hooks may drain (and
		// recycle) the staged entry before it returns.
		snap, rc = r.getWBBuf(len(dst)), p.rect
		overlayRect(d, rc, snap, p.buf)
	}
	err = r.storeRead(d, idx, dst)
	if snap != nil {
		if err == nil {
			overlayRect(d, rc, dst, snap)
		}
		r.putWBBuf(snap)
	}
	return err == nil, err
}

// fill completes a partial object: the far tier's image with the
// written rectangle overlaid replaces the frame. On failure the object
// stays partial — the written bytes are kept — and a *FillError is
// returned.
func (r *Runtime) fill(d *DS, idx int) error {
	obj := &d.objs[idx]
	err := r.fillImage(d, idx, obj.rect, func() []byte {
		if !obj.partial {
			return nil // a recovery drain inside the read filled it
		}
		return r.arena.Bytes(obj.frame, d.Meta.ObjSize)
	})
	if err == nil {
		obj.partial = false
	}
	return err
}

// fillImage is the one fill helper: it reads the far tier's image of
// (d, idx) (readImage), overlays the bytes inside rc from the partial
// image img returns — asked for after the read, whose recovery hooks
// may have completed or released it (nil) — and writes the result back
// into img. The read counts as a remote fetch.
func (r *Runtime) fillImage(d *DS, idx int, rc dirtyRect, img func() []byte) error {
	sz := d.Meta.ObjSize
	tmp := r.getWBBuf(sz)
	defer r.putWBBuf(tmp)
	start := r.clock.Now()
	fetched, err := r.readImage(d, idx, tmp)
	if err != nil {
		return &FillError{DS: d.ID, Idx: idx, Err: err}
	}
	if fetched {
		r.countFill(d, sz, start)
	}
	if dst := img(); dst != nil {
		overlayRect(d, rc, tmp, dst)
		copy(dst, tmp)
	}
	return nil
}

// countFill accounts one fill read: a remote fetch like any miss.
func (r *Runtime) countFill(d *DS, sz int, start uint64) {
	r.stats.RemoteFetches++
	r.stats.PartialFills++
	d.stats.Misses++
	r.link.FetchSync(sz)
	d.fetchHist.Observe(r.clock.Now() - start)
}

// writeBackSync writes one dirty resident object back synchronously as
// a full image: a partial object is filled first, and a write-back of
// the object still staged is settled before — two writes of one object
// never race on the wire — or, when parked, superseded by this newer
// image once it is durable.
func (r *Runtime) writeBackSync(d *DS, idx int) error {
	key := wbKey{d.ID, idx}
	if p, ok := r.wbPending[key]; ok && !p.parked {
		r.stats.WriteBackStalls++
		r.link.WaitUntil(p.doneAt)
		r.settleWB(p)
	}
	if err := r.writeResident(d, idx); err != nil {
		return err
	}
	if p, ok := r.wbPending[key]; ok {
		r.releaseWB(p)
	}
	return nil
}

// writeResident writes a dirty resident object's full image to the far
// tier, filling a partial one first. It is the write-back step of the
// breaker recovery drains.
func (r *Runtime) writeResident(d *DS, idx int) error {
	if d.objs[idx].partial {
		if err := r.fill(d, idx); err != nil {
			return err
		}
	}
	if err := r.storeWrite(d, idx, r.arena.Bytes(d.objs[idx].frame, d.Meta.ObjSize)); err != nil {
		return err
	}
	r.link.WriteBack(d.Meta.ObjSize)
	return nil
}

// reissueWB replays a staged write-back synchronously as a full image;
// a partial entry is completed from the far tier first, so the replay
// is idempotent.
func (r *Runtime) reissueWB(p *pendingWB) error {
	if p.partial {
		if err := r.fillImage(p.d, p.idx, p.rect, func() []byte { return p.buf }); err != nil {
			return err
		}
		if p.buf == nil {
			return nil // released by a drain inside the read: nothing left to write
		}
		p.partial = false
	}
	return r.storeWrite(p.d, p.idx, p.buf)
}
