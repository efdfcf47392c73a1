package remote

import (
	"sync"
	"sync/atomic"
)

// Resilient is a far-tier client that survives outages longer than the
// underlying client's reconnect budget. The PipelinedClient replays its
// window across transient cuts, but once RetryMax consecutive redials
// fail (server down, not flaky) it fails permanently — the right
// behavior for the transport, since blocking ops during an unbounded
// outage would wedge the runtime instead of letting its circuit breaker
// degrade. Resilient adds the missing half: after a permanent client
// failure, the next operation (typically the breaker's Ping probe)
// dials a replacement client, so a restarted server resumes service
// without the process restarting.
//
// Each replacement dial is a single attempt that fails fast; pacing
// retries across the outage is the caller's job (the farmem breaker
// probes on its own clock).
type Resilient struct {
	addr string
	opts PipelineOpts

	// mu serializes replacement dials, retirement and Close; cur is
	// written under it and read without it on the hot path.
	mu     sync.Mutex
	cur    atomic.Pointer[PipelinedClient]
	closed bool
}

// DialResilient connects like DialPipelined (the initial dial uses the
// config's full retry budget) and keeps the connection replaceable
// across permanent client failures.
func DialResilient(addr string, cfg DialConfig) (*Resilient, error) {
	opts := cfg.pipelineOpts().withRedial(addr)
	c, err := DialPipelined(addr, opts)
	if err != nil {
		return nil, err
	}
	r := &Resilient{addr: addr, opts: opts}
	r.cur.Store(c)
	return r, nil
}

// client returns the live client, dialing a replacement if the previous
// one was retired.
func (r *Resilient) client() (*PipelinedClient, error) {
	if c := r.cur.Load(); c != nil {
		return c, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClientClosed
	}
	if c := r.cur.Load(); c != nil {
		return c, nil
	}
	c, err := dialOnce(r.addr, r.opts)
	if err != nil {
		return nil, err
	}
	r.cur.Store(c)
	return c, nil
}

// retire drops c once its reconnect budget is spent and it can no
// longer serve operations.
func (r *Resilient) retire(c *PipelinedClient) {
	if c.Alive() {
		return
	}
	r.mu.Lock()
	r.cur.CompareAndSwap(c, nil)
	r.mu.Unlock()
	// The client has already failed permanently: its connection is closed
	// and its loops are exiting, so Close only waits for them. That wait
	// must not run inline — retire is reached from async completion
	// callbacks that fail() invokes on the dying client's own reader
	// goroutine, where a synchronous Close would wait on itself.
	go c.Close()
}

// retireOnErr wraps an async completion so a failure retires c first.
func (r *Resilient) retireOnErr(c *PipelinedClient, done func(error)) func(error) {
	return func(err error) {
		if err != nil {
			r.retire(c)
		}
		done(err)
	}
}

func (r *Resilient) do(op func(*PipelinedClient) error) error {
	c, err := r.client()
	if err != nil {
		return err
	}
	if err := op(c); err != nil {
		r.retire(c)
		return err
	}
	return nil
}

// ReadObj implements farmem.Store.
func (r *Resilient) ReadObj(ds, idx int, dst []byte) error {
	return r.do(func(c *PipelinedClient) error { return c.ReadObj(ds, idx, dst) })
}

// WriteObj implements farmem.Store.
func (r *Resilient) WriteObj(ds, idx int, src []byte) error {
	return r.do(func(c *PipelinedClient) error { return c.WriteObj(ds, idx, src) })
}

// Ping checks liveness; it is the usual path that detects a recovered
// server and triggers the replacement dial.
func (r *Resilient) Ping() error {
	return r.do(func(c *PipelinedClient) error { return c.Ping() })
}

// IssueRead implements farmem.AsyncStore over the replaceable client.
func (r *Resilient) IssueRead(ds, idx int, dst []byte, done func(error)) {
	c, err := r.client()
	if err != nil {
		done(err)
		return
	}
	c.IssueRead(ds, idx, dst, r.retireOnErr(c, done))
}

// IssueWrite implements farmem.AsyncWriteStore over the replaceable
// client. A failed async write retires the dead client like any other
// failure, so the caller's reissue finds a fresh connection.
func (r *Resilient) IssueWrite(ds, idx int, src []byte, done func(error)) {
	c, err := r.client()
	if err != nil {
		done(err)
		return
	}
	c.IssueWrite(ds, idx, src, r.retireOnErr(c, done))
}

// Close closes the current client; later operations fail with
// ErrClientClosed.
func (r *Resilient) Close() error {
	r.mu.Lock()
	c := r.cur.Swap(nil)
	r.closed = true
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
