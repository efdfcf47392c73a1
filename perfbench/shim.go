package main

import (
	"fmt"
	"io"
	"strings"

	"cards/internal/farmem"
	"cards/internal/rdma"
	"cards/internal/replica"
	"cards/internal/shardmap"
)

// The timing shims wrap the far-tier store the runtime calls and, under
// the replicated store, each backend. The runtime and the replicated
// store pick their code paths by type assertion (async reads, write
// pipeline, range write-back, traversal offload, recovery draining,
// breaker probes, placement), so a shim must expose exactly the
// capability set of what it wraps: a shim that dropped IssueChase would
// silently turn traversal offload into per-hop reads. Go cannot vary a
// type's method set at run time, so each supported capability set has
// its own struct type, composed from one mixin per capability, and
// wrapping a store whose set has no such type is an error.

// policySetter is the placement surface of multi-backend stores.
type policySetter interface {
	SetPolicy(ds int, p shardmap.Policy)
}

// capChecks lists every capability a shim must forward faithfully, in
// bit order: the interfaces the runtime asserts on its store and the
// replicated store asserts on a backend (which it also closes when it
// is an io.Closer).
var capChecks = []struct {
	name string
	has  func(any) bool
}{
	{"AsyncStore", func(s any) bool { _, ok := s.(farmem.AsyncStore); return ok }},
	{"AsyncWriteStore", func(s any) bool { _, ok := s.(farmem.AsyncWriteStore); return ok }},
	{"RangeWriteStore", func(s any) bool { _, ok := s.(farmem.RangeWriteStore); return ok }},
	{"AsyncChaseStore", func(s any) bool { _, ok := s.(farmem.AsyncChaseStore); return ok }},
	{"Recoverable", func(s any) bool { _, ok := s.(farmem.Recoverable); return ok }},
	{"DrainScoper", func(s any) bool { _, ok := s.(farmem.DrainScoper); return ok }},
	{"Pinger", func(s any) bool { _, ok := s.(farmem.Pinger); return ok }},
	{"SetPolicy", func(s any) bool { _, ok := s.(policySetter); return ok }},
	{"EpochBackend", func(s any) bool { _, ok := s.(replica.EpochBackend); return ok }},
	{"RangeEpochBackend", func(s any) bool { _, ok := s.(replica.RangeEpochBackend); return ok }},
	{"io.Closer", func(s any) bool { _, ok := s.(io.Closer); return ok }},
}

// Capability bits, indexing capChecks.
const (
	capAsync uint16 = 1 << iota
	capAsyncWrite
	capRangeWrite
	capAsyncChase
	capRecoverable
	capDrainScoper
	capPinger
	capSetPolicy
	capEpoch
	capRangeEpoch
	capCloser
)

// capsOf returns the capability bits s satisfies.
func capsOf(s any) uint16 {
	var c uint16
	for i, chk := range capChecks {
		if chk.has(s) {
			c |= 1 << i
		}
	}
	return c
}

func capString(c uint16) string {
	var names []string
	for i, chk := range capChecks {
		if c&(1<<i) != 0 {
			names = append(names, chk.name)
		}
	}
	if len(names) == 0 {
		return "{}"
	}
	return "{" + strings.Join(names, ",") + "}"
}

// Capability sets with a shim type. The store the runtime calls is
// plain (no bits), one transport client (capsTransport) or the
// replicated store (capsFleet); storeCapMask holds every bit the
// runtime asserts. capsBackend is what the replicated store asserts on
// a backend.
const (
	capsTransport = capAsync | capAsyncWrite | capRangeWrite | capAsyncChase | capPinger
	capsFleet     = capsTransport | capRecoverable | capDrainScoper | capSetPolicy
	storeCapMask  = capsFleet
	capsBackend   = capEpoch | capRangeEpoch | capAsyncChase | capPinger | capCloser
)

// shimCore is the state every mixin of one shim shares: the wrapped value
// under each interface it satisfies.
type shimCore struct {
	rec        *recorder
	l          layer
	inner      farmem.Store
	async      farmem.AsyncStore
	awrite     farmem.AsyncWriteStore
	rwrite     farmem.RangeWriteStore
	chase      farmem.AsyncChaseStore
	recov      farmem.Recoverable
	scope      farmem.DrainScoper
	ping       farmem.Pinger
	policy     policySetter
	epoch      replica.EpochBackend
	rangeEpoch replica.RangeEpochBackend
	closer     io.Closer
}

func newCore(rec *recorder, l layer, s farmem.Store) *shimCore {
	c := &shimCore{rec: rec, l: l, inner: s}
	c.async, _ = s.(farmem.AsyncStore)
	c.awrite, _ = s.(farmem.AsyncWriteStore)
	c.rwrite, _ = s.(farmem.RangeWriteStore)
	c.chase, _ = s.(farmem.AsyncChaseStore)
	c.recov, _ = s.(farmem.Recoverable)
	c.scope, _ = s.(farmem.DrainScoper)
	c.ping, _ = s.(farmem.Pinger)
	c.policy, _ = s.(policySetter)
	c.epoch, _ = s.(replica.EpochBackend)
	c.rangeEpoch, _ = s.(replica.RangeEpochBackend)
	c.closer, _ = s.(io.Closer)
	return c
}

// sync times one synchronous call.
func (c *shimCore) sync(k opKind, name string, fn func() error) error {
	cl := c.rec.begin(c.l, k, name, true)
	err := fn()
	cl.returned(err)
	return err
}

// issue times one asynchronous call from issue to completion; fn
// receives the completion hook to call before the caller's own.
func (c *shimCore) issue(k opKind, name string, fn func(onDone func(error))) {
	cl := c.rec.begin(c.l, k, name, false)
	fn(cl.completed)
	cl.returned(nil)
}

// baseOps: farmem.Store.
type baseOps struct{ *shimCore }

func (m baseOps) ReadObj(ds, idx int, dst []byte) error {
	return m.sync(opRead, "ReadObj", func() error { return m.inner.ReadObj(ds, idx, dst) })
}

func (m baseOps) WriteObj(ds, idx int, src []byte) error {
	return m.sync(opWrite, "WriteObj", func() error { return m.inner.WriteObj(ds, idx, src) })
}

// asyncReads: farmem.AsyncStore.
type asyncReads struct{ *shimCore }

func (m asyncReads) IssueRead(ds, idx int, dst []byte, done func(error)) {
	m.issue(opRead, "IssueRead", func(hook func(error)) {
		m.async.IssueRead(ds, idx, dst, func(err error) { hook(err); done(err) })
	})
}

// asyncWrites: farmem.AsyncWriteStore.
type asyncWrites struct{ *shimCore }

func (m asyncWrites) IssueWrite(ds, idx int, src []byte, done func(error)) {
	m.issue(opWrite, "IssueWrite", func(hook func(error)) {
		m.awrite.IssueWrite(ds, idx, src, func(err error) { hook(err); done(err) })
	})
}

// rangeWrites: farmem.RangeWriteStore.
type rangeWrites struct{ *shimCore }

func (m rangeWrites) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	m.issue(opWrite, "IssueWriteRanges", func(hook func(error)) {
		m.rwrite.IssueWriteRanges(ds, idx, src, exts, func(err error) { hook(err); done(err) })
	})
}

// asyncChases: farmem.AsyncChaseStore.
type asyncChases struct{ *shimCore }

func (m asyncChases) ChaseCapable() bool { return m.chase.ChaseCapable() }

func (m asyncChases) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	var res rdma.ChaseResult
	err := m.sync(opChase, "Chase", func() error {
		var err error
		res, err = m.chase.Chase(req)
		return err
	})
	return res, err
}

func (m asyncChases) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	m.issue(opChase, "IssueChase", func(hook func(error)) {
		m.chase.IssueChase(req, func(res rdma.ChaseResult, err error) { hook(err); done(res, err) })
	})
}

// Untimed capabilities: probes and placement bookkeeping, not data
// movement.
type pinger struct{ *shimCore }

func (m pinger) Ping() error { return m.ping.Ping() }

type recoverable struct{ *shimCore }

func (m recoverable) RecoveryEpoch() uint64 { return m.recov.RecoveryEpoch() }

type drainScoper struct{ *shimCore }

func (m drainScoper) ShouldDrain(ds, idx int, sinceEpoch uint64) bool {
	return m.scope.ShouldDrain(ds, idx, sinceEpoch)
}

func (m drainScoper) Stranded(ds, idx int) bool { return m.scope.Stranded(ds, idx) }

type closer struct{ *shimCore }

func (m closer) Close() error { return m.closer.Close() }

type placement struct{ *shimCore }

func (m placement) SetPolicy(ds int, p shardmap.Policy) { m.policy.SetPolicy(ds, p) }

// epochOps: replica.EpochBackend (which includes farmem.Store).
type epochOps struct{ baseOps }

func (m epochOps) ReadObjEpoch(ds, idx int, dst []byte) (uint64, error) {
	var e uint64
	err := m.sync(opRead, "ReadObjEpoch", func() error {
		var err error
		e, err = m.epoch.ReadObjEpoch(ds, idx, dst)
		return err
	})
	return e, err
}

func (m epochOps) WriteObjEpoch(ds, idx int, epoch uint64, src []byte) error {
	return m.sync(opWrite, "WriteObjEpoch", func() error { return m.epoch.WriteObjEpoch(ds, idx, epoch, src) })
}

func (m epochOps) IssueReadEpoch(ds, idx int, dst []byte, done func(uint64, error)) {
	m.issue(opRead, "IssueReadEpoch", func(hook func(error)) {
		m.epoch.IssueReadEpoch(ds, idx, dst, func(e uint64, err error) { hook(err); done(e, err) })
	})
}

func (m epochOps) IssueWriteEpoch(ds, idx int, epoch uint64, src []byte, done func(error)) {
	m.issue(opWrite, "IssueWriteEpoch", func(hook func(error)) {
		m.epoch.IssueWriteEpoch(ds, idx, epoch, src, func(err error) { hook(err); done(err) })
	})
}

// rangeEpochWrites: replica.RangeEpochBackend.
type rangeEpochWrites struct{ *shimCore }

func (m rangeEpochWrites) IssueWriteRangesEpoch(ds, idx int, epoch uint64, src []byte, exts []rdma.Extent, done func(error)) {
	m.issue(opWrite, "IssueWriteRangesEpoch", func(hook func(error)) {
		m.rangeEpoch.IssueWriteRangesEpoch(ds, idx, epoch, src, exts, func(err error) { hook(err); done(err) })
	})
}

// The shim types, one per supported capability set.
type (
	plainShim     struct{ baseOps }
	transportShim struct {
		baseOps
		asyncReads
		asyncWrites
		rangeWrites
		asyncChases
		pinger
	}
	fleetShim struct {
		transportShim
		recoverable
		drainScoper
		placement
	}
	backendShim struct {
		epochOps
		rangeEpochWrites
		asyncChases
		pinger
		closer
	}
)

// wrapStore returns a timing shim around the store the runtime calls,
// with the same capability set.
func wrapStore(rec *recorder, s farmem.Store) (farmem.Store, error) {
	c := newCore(rec, layerStore, s)
	t := transportShim{baseOps{c}, asyncReads{c}, asyncWrites{c}, rangeWrites{c}, asyncChases{c}, pinger{c}}
	switch caps := capsOf(s) & storeCapMask; caps {
	case 0:
		return plainShim{baseOps{c}}, nil
	case capsTransport:
		return t, nil
	case capsFleet:
		return fleetShim{t, recoverable{c}, drainScoper{c}, placement{c}}, nil
	default:
		return nil, fmt.Errorf("perfbench: no store shim for capability set %s of %T", capString(caps), s)
	}
}

// wrapBackend returns a timing shim around one backend of the
// replicated store, with the same backend capability set.
func wrapBackend(rec *recorder, s farmem.Store) (farmem.Store, error) {
	c := newCore(rec, layerBackend, s)
	if caps := capsOf(s) & capsBackend; caps != capsBackend {
		return nil, fmt.Errorf("perfbench: no backend shim for capability set %s of %T", capString(caps), s)
	}
	return backendShim{epochOps{baseOps{c}}, rangeEpochWrites{c}, asyncChases{c}, pinger{c}, closer{c}}, nil
}
