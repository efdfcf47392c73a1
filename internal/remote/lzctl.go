package remote

// Session-level compression control: "is LZ worth it on this link?".
//
// The per-DS compressPolicy (compact.go) answers "does this data
// shrink?". Whether shrinking it pays is a property of the link and of
// the two CPUs: on loopback the codec costs more wall-clock time than
// the bytes it saves; on a slow link the bytes are the cost. A passive
// link-ns/byte estimate cannot tell the two apart — a token-bucket link
// that LZ keeps under capacity adds no per-byte delay until it
// saturates, so the estimate reads ~0 exactly when turning LZ off would
// saturate it. The controller therefore measures what the application
// waits on: the enqueue→completion latency of the session's plain and
// epoch reads, under each mode.
//
// It runs in a home mode (LZ on, at session start) in epochs of lzEpoch
// samples, and every gap home epochs probes the other mode for one
// epoch. The first lzSettle samples after every mode change are
// discarded: ops in flight across the change, and the burst a shaped
// link still allows before it starts pacing, which would flatter a raw
// probe. The verdict is A/B/A: the probe wins only when its mean is
// below lzWinNum/lzWinDen (3/4) of both neighbouring home epochs' means,
// so a stall inside one home epoch cannot fake a win. A win switches the
// home mode and resets gap to lzMinGap; a loss multiplies gap by
// lzBackoff, up to lzMaxGap.
//
// Probe share bound: at least lzMinGap home epochs separate any two
// probes, so probe-mode samples never exceed lzMaxProbeShare (~16%) of
// all samples, and in a session that does not switch the share falls
// toward (lzSettle+lzEpoch)/(lzMaxGap·lzEpoch) (~0.15%) as gap grows. A
// raw probe on a slow link costs bytes, and the link debt it leaves
// costs the reads after it time, so the backoff is steep: a session that
// keeps its mode probes after 512, ~2.6k, ~11k and ~44k reads, then
// every ~66k.
//
// The controller is owned by the pipelined client's reader goroutine
// (the only caller of observe); the flusher sees its mode through an
// atomic. It allocates nothing.
const (
	lzEpoch   = 64   // measured samples per epoch
	lzSettle  = 32   // samples discarded after each mode change
	lzMinGap  = 8    // home epochs before the first probe, and after a switch
	lzMaxGap  = 1024 // backoff cap, in home epochs
	lzBackoff = 4    // gap multiplier after a lost probe
	lzWinNum  = 3    // a probe wins when its mean < lzWinNum/lzWinDen of
	lzWinDen  = 4    // both neighbouring home epochs' means

	// lzMaxProbeShare bounds the share of samples taken in probe mode.
	lzMaxProbeShare = float64(lzSettle+lzEpoch) / float64(lzSettle+lzEpoch+lzMinGap*lzEpoch)
)

type lzController struct {
	on     bool  // home mode: true = LZ on
	probe  bool  // the current epoch runs the other mode
	settle int   // samples of the current mode still to discard
	n      int   // measured samples in the current epoch
	sum    int64 // their latency sum, ns
	before int64 // mean of the home epoch preceding the last probe
	probed int64 // mean of the last probe epoch, awaiting its verdict (0 = none)
	left   int   // home epochs before the next probe
	gap    int   // current probe gap in home epochs
}

func newLZController() *lzController {
	return &lzController{on: true, left: lzMinGap, gap: lzMinGap}
}

// lz reports the mode the next operation should be sent under.
func (c *lzController) lz() bool { return c.on != c.probe }

// observe feeds one completed read: lz is the mode it was sent under,
// ns its enqueue→completion latency. It reports whether the sample was
// taken in probe mode and whether the home mode just switched. Samples
// sent under a mode that is no longer running are dropped.
func (c *lzController) observe(lz bool, ns int64) (probeOp, switched bool) {
	if lz != c.lz() {
		return false, false
	}
	probeOp = c.probe
	if c.settle > 0 {
		c.settle--
		return probeOp, false
	}
	c.sum += ns
	c.n++
	if c.n < lzEpoch {
		return probeOp, false
	}
	mean := max(c.sum/int64(c.n), 1)
	c.sum, c.n = 0, 0
	if c.probe {
		c.probed = mean
		c.probe = false
		c.settle = lzSettle
		return probeOp, false
	}
	if c.probed > 0 {
		win := c.probed*lzWinDen < min(c.before, mean)*lzWinNum
		c.probed = 0
		if win {
			c.on = !c.on
			c.settle = lzSettle
			c.gap, c.left = lzMinGap, lzMinGap
			return probeOp, true
		}
		c.gap = min(lzBackoff*c.gap, lzMaxGap)
		c.left = c.gap
	}
	c.before = mean
	if c.left--; c.left <= 0 {
		c.probe = true
		c.settle = lzSettle
	}
	return probeOp, false
}
