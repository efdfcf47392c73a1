package remote

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync/atomic"
	"time"
)

// Fault-model errors.
var (
	// ErrTimeout reports a round trip that exceeded its deadline. It
	// wraps os.ErrDeadlineExceeded, so callers can errors.Is against
	// either sentinel. A timed-out connection is always abandoned: the
	// response may still arrive later, and pairing it with the next
	// request would desynchronize the stream.
	ErrTimeout = fmt.Errorf("remote: round-trip deadline exceeded: %w", os.ErrDeadlineExceeded)

	// ErrUncertainWrite reports a write whose outcome is unknown: the
	// transport failed after the request may have reached the server, so
	// the mutation may or may not have been applied. The transport never
	// retries these silently — only a caller that knows its writes are
	// idempotent (the farmem runtime's full-object, single-writer
	// write-backs are) may safely replay them.
	ErrUncertainWrite = errors.New("remote: write outcome uncertain (transport failed mid round trip)")
)

// uncertain wraps a transport error in ErrUncertainWrite, keeping the
// cause inspectable through errors.Is/As.
func uncertain(err error) error {
	return fmt.Errorf("%w: %w", ErrUncertainWrite, err)
}

// connDeadline is the deadline surface of net.Conn and net.Pipe; the
// guard uses it when available and falls back to a watchdog timer that
// closes the connection otherwise.
type connDeadline interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// ioGuard bounds one I/O exchange on a connection. Two strategies:
// real deadlines when the transport has them (TCP, net.Pipe), else a
// watchdog timer that closes the connection — either way the blocked
// I/O returns promptly and finish() maps the failure to ErrTimeout.
type ioGuard struct {
	dl    connDeadline
	timer *time.Timer
	fired *atomic.Bool
}

// guardIO arms a deadline of d over conn; d <= 0 arms nothing.
func guardIO(conn io.ReadWriteCloser, d time.Duration) *ioGuard {
	if d <= 0 {
		return nil
	}
	if dl, ok := conn.(connDeadline); ok {
		t := time.Now().Add(d)
		if dl.SetReadDeadline(t) == nil && dl.SetWriteDeadline(t) == nil {
			return &ioGuard{dl: dl}
		}
	}
	fired := new(atomic.Bool)
	return &ioGuard{
		fired: fired,
		timer: time.AfterFunc(d, func() {
			fired.Store(true)
			conn.Close()
		}),
	}
}

// finish disarms the guard and rewrites err when the deadline caused
// it. Call exactly once, with the result of the guarded exchange.
func (g *ioGuard) finish(err error) error {
	if g == nil {
		return err
	}
	if g.timer != nil {
		g.timer.Stop()
		if err != nil && g.fired.Load() {
			return fmt.Errorf("%w (%v)", ErrTimeout, err)
		}
		return err
	}
	// Clear the deadlines so later exchanges on this conn start fresh.
	g.dl.SetReadDeadline(time.Time{})
	g.dl.SetWriteDeadline(time.Time{})
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("%w (%v)", ErrTimeout, err)
	}
	return err
}

// backoff computes the capped exponential backoff with jitter for
// retry attempt n (0-based): base<<n clamped to cap, plus up to 50%
// uniform jitter so a fleet of clients does not redial in lockstep.
func backoff(rng *rand.Rand, base, cap time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if cap <= 0 {
		cap = 250 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > cap || d <= 0 {
		d = cap
	}
	if rng != nil {
		d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	}
	return d
}
