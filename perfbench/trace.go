package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is the kind of a far-tier call.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opChase
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "chase"}

// layer is the boundary a shim sits on.
type layer int

const (
	// layerStore is the far-tier store the runtime calls (the
	// transport client, or the replicated store above the backends).
	layerStore layer = iota
	// layerBackend is one transport client under the replicated store.
	layerBackend
	numLayers
)

var layerNames = [numLayers]string{"store", "backend"}

// maxSpans bounds the far-tier call spans kept in memory; later ones
// are counted as dropped. Boundary spans (set-up, runs, oracle) are
// always kept.
const maxSpans = 200_000

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the recorder's origin. parent is the span that was
// open on the calling thread when this one started (0: none); trace is
// the execution span it ran under.
type span struct {
	id, parent, trace uint64
	name, cat         string
	start, end        int64
}

// tally accumulates one (layer, kind) of far-tier calls.
type tally struct {
	syncCalls, asyncCalls uint64
	errors                uint64
	syncNS                int64     // time inside synchronous calls
	latUS                 []float64 // issue to completion, every call
}

// recorder collects spans and per-call timings from the shims and the
// benchmark's own boundaries. Far-tier calls may complete on transport
// goroutines, so everything below mu is guarded.
type recorder struct {
	origin time.Time
	nextID atomic.Uint64
	// open is the span open on the application thread (region or store
	// call); openStore the store call in progress, if any. A backend
	// call made while a store call is open is that call's child.
	open, openStore atomic.Uint64
	trace           atomic.Uint64
	inflight        atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped uint64
	tallies [numLayers][numKinds]tally
	// onThreadNS is the time spent inside calls on the calling thread,
	// per layer; nestedNS the part of the store layer's that was spent
	// inside backend calls it made.
	onThreadNS [numLayers]int64
	nestedNS   int64
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// keep stores one finished far-tier call span; r.mu must be held.
func (r *recorder) keep(s span) {
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
}

// region opens a boundary span (compile, fleet start, dial, run, ...)
// on the application thread and returns its closer. A region named
// "run" becomes the trace of every far-tier call made inside it.
func (r *recorder) region(name string) func() {
	if r == nil {
		return func() {}
	}
	s := span{id: r.nextID.Add(1), parent: r.open.Load(), trace: r.trace.Load(), name: name, cat: "bench", start: r.now()}
	prevTrace := s.trace
	if name == "run" {
		r.trace.Store(s.id)
		s.trace = s.id
	}
	r.open.Store(s.id)
	return func() {
		s.end = r.now()
		r.open.Store(s.parent)
		r.trace.Store(prevTrace)
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// call is one far-tier call in progress.
type call struct {
	r      *recorder
	l      layer
	k      opKind
	sync   bool
	nested bool // a backend call made inside an open store call
	s      span
}

// begin starts timing a far-tier call at layer l.
func (r *recorder) begin(l layer, k opKind, name string, sync bool) *call {
	c := &call{r: r, l: l, k: k, sync: sync}
	c.s = span{id: r.nextID.Add(1), trace: r.trace.Load(), name: name, cat: layerNames[l]}
	if l == layerStore {
		c.s.parent = r.open.Load()
		r.openStore.Store(c.s.id)
	} else if p := r.openStore.Load(); p != 0 {
		c.s.parent = p
		c.nested = true
	}
	r.inflight.Add(1)
	c.s.start = r.now()
	return c
}

// returned marks the end of the call on the calling thread. For a
// synchronous call that is also its completion.
func (c *call) returned(err error) {
	r := c.r
	d := r.now() - c.s.start
	if c.l == layerStore {
		r.openStore.Store(0)
	}
	r.mu.Lock()
	r.onThreadNS[c.l] += d
	if c.nested {
		r.nestedNS += d
	}
	r.mu.Unlock()
	if c.sync {
		c.completed(err)
	}
}

// completed records the call's completion (issue to done).
func (c *call) completed(err error) {
	r := c.r
	c.s.end = r.now()
	r.mu.Lock()
	t := &r.tallies[c.l][c.k]
	if c.sync {
		t.syncCalls++
		t.syncNS += c.s.end - c.s.start
	} else {
		t.asyncCalls++
	}
	if err != nil {
		t.errors++
	}
	t.latUS = append(t.latUS, float64(c.s.end-c.s.start)/1e3)
	r.keep(c.s)
	r.mu.Unlock()
	r.inflight.Add(-1)
}

// quiesce waits until no far-tier call is in flight (prefetches issued
// near the end of an execution may still be completing).
func (r *recorder) quiesce(within time.Duration) bool {
	deadline := time.Now().Add(within)
	for r.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// traceSnapshot is the part of the recorder the metrics are computed
// from.
type traceSnapshot struct {
	tallies    [numLayers][numKinds]tally
	onThreadNS [numLayers]int64
	nestedNS   int64
	spans      int
	dropped    uint64
}

func (r *recorder) snapshot() traceSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return traceSnapshot{
		tallies:    r.tallies,
		onThreadNS: r.onThreadNS,
		nestedNS:   r.nestedNS,
		spans:      len(r.spans),
		dropped:    r.dropped,
	}
}

// reset clears the per-call tallies (spans are kept), so a measured
// phase starts from zero.
func (r *recorder) reset() {
	r.mu.Lock()
	r.tallies = [numLayers][numKinds]tally{}
	r.onThreadNS = [numLayers]int64{}
	r.nestedNS = 0
	r.mu.Unlock()
}

// writeChrome writes every recorded span as Chrome trace_event JSON
// (loadable in Perfetto or chrome://tracing): one complete event per
// span, one track per layer, with the span, parent and trace IDs in
// args.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tid := map[string]int{"bench": 0, "store": 1, "backend": 2}
	fmt.Fprintf(w, "{\"otherData\":{\"dropped\":%d},\"traceEvents\":[\n", r.dropped)
	for i, s := range r.spans {
		name, _ := json.Marshal(s.name)
		sep := ","
		if i == len(r.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%s,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"trace\":%d}}%s\n",
			name, s.cat, tid[s.cat], float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.trace, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
