package rdma

import "math/bits"

// Payload buffer pooling. The steady-state data path decodes and
// encodes one payload per frame; allocating each from the heap makes
// the GC a bandwidth tax at high frame rates. Buffers are recycled
// through power-of-two size classes instead.
//
// The free lists are buffered channels rather than a sync.Pool: putting
// a []byte into a sync.Pool allocates the slice header (it escapes into
// the interface), which would put one malloc back on every frame — the
// exact cost the pool exists to remove. Channel sends of slices do not
// allocate, the lists are allocation-free in steady state, and the
// per-class capacity bounds retained memory deterministically.

const (
	// minBufBits is the smallest pooled class (64 B); requests below it
	// share that class.
	minBufBits = 6
	// maxBufBits is the largest class, sized to MaxFrame (16 MiB).
	maxBufBits = 24
)

var bufClasses [maxBufBits - minBufBits + 1]chan []byte

func init() {
	for i := range bufClasses {
		// Small classes ride the per-frame fast path and keep more
		// spares; capping the >64 KiB classes low bounds worst-case
		// retention to a few frames' worth.
		n := 128
		if i+minBufBits > 16 {
			n = 4
		}
		bufClasses[i] = make(chan []byte, n)
	}
}

// bufClass maps a requested length to the smallest class that fits it.
func bufClass(n int) int {
	if n <= 1<<minBufBits {
		return 0
	}
	return bits.Len(uint(n-1)) - minBufBits
}

// GetBuf returns a buffer of length n from the frame buffer pool
// (capacity may exceed n). Contents are unspecified. GetBuf(0) is nil.
func GetBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	c := bufClass(n)
	if c >= len(bufClasses) {
		return make([]byte, n)
	}
	select {
	case b := <-bufClasses[c]:
		return b[:n]
	default:
		return make([]byte, n, 1<<(c+minBufBits))
	}
}

// PutBuf returns a buffer to the pool. Callers must not retain any
// reference into b afterwards. PutBuf(nil) is a no-op, and buffers of
// foreign (non-pool) capacities are simply dropped for the GC.
func PutBuf(b []byte) {
	// A buffer parks in the largest class its capacity fully covers, so
	// GetBuf never hands out a buffer shorter than the class promises.
	c := bits.Len(uint(cap(b))) - 1 - minBufBits
	if c < 0 {
		return
	}
	if c >= len(bufClasses) {
		c = len(bufClasses) - 1
	}
	select {
	case bufClasses[c] <- b[:0]:
	default:
	}
}
