package rdma

import "fmt"

// Bit-level encoding primitives for the compact wire tier.
//
// Compact batch frames pack their per-tuple headers at bit granularity:
// one-bit "same as previous" flags, two-bit compression schemes, and
// nibble varints for counts, sizes and deltas. The stream is LSB-first
// within each byte (bit k of the stream is bit k%8 of byte k/8), so a
// sequence of WriteBits calls round-trips through ReadBits regardless of
// field widths.
//
// Varints use 5-bit groups — a continuation bit followed by 4 data bits,
// least significant group first. Small values (the common case for
// delta-encoded indices and tag-like fields) cost 5 bits instead of a
// full byte, and a u64 costs at most 16 groups. Signed deltas ride the
// usual zigzag mapping.
//
// Both ends carry a sticky error instead of returning one per call: a
// writer that overruns its buffer or a reader that underruns its input
// records the fault once, every later call becomes a no-op, and the
// caller checks Err after the batch — which keeps the per-field hot path
// branch-light and allocation-free.

// BitWriter packs bits into a caller-provided buffer (typically pooled).
type BitWriter struct {
	p    []byte
	off  int    // bytes fully written
	cur  uint64 // bit accumulator, low bits first
	n    uint   // bits held in cur
	fail bool
}

// NewBitWriter starts a bit stream over p; the stream fails (sticky)
// rather than growing p when it runs out of room.
func NewBitWriter(p []byte) BitWriter { return BitWriter{p: p} }

// WriteBits appends the low n bits of v (n <= 57 per call; larger fields
// go through Uvarint). Bits beyond n in v must be zero.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	w.cur |= v << w.n
	w.n += n
	for w.n >= 8 {
		if w.off >= len(w.p) {
			w.fail = true
			w.n = 0
			return
		}
		w.p[w.off] = byte(w.cur)
		w.off++
		w.cur >>= 8
		w.n -= 8
	}
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// Uvarint appends v as 5-bit groups (continuation bit + 4 data bits).
func (w *BitWriter) Uvarint(v uint64) {
	for v >= 16 {
		w.WriteBits(1|(v&15)<<1, 5)
		v >>= 4
	}
	w.WriteBits(v<<1, 5)
}

// Svarint appends a signed value via zigzag + Uvarint.
func (w *BitWriter) Svarint(v int64) {
	w.Uvarint(uint64(v<<1) ^ uint64(v>>63))
}

// Align pads the stream with zero bits to the next byte boundary.
func (w *BitWriter) Align() {
	if w.n > 0 {
		w.WriteBits(0, 8-w.n%8)
	}
}

// Bytes appends n raw bytes to the (byte-aligned) stream and returns the
// destination slice for the caller to fill; nil when the stream failed
// or is unaligned.
func (w *BitWriter) Bytes(n int) []byte {
	if w.n != 0 {
		w.fail = true
	}
	if w.fail || w.off+n > len(w.p) {
		w.fail = true
		return nil
	}
	s := w.p[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}

// Len returns the bytes emitted so far (aligned streams only).
func (w *BitWriter) Len() int { return w.off }

// Err reports whether the stream overran its buffer.
func (w *BitWriter) Err() error {
	if w.fail {
		return fmt.Errorf("rdma: bit stream overflow (buffer %d bytes)", len(w.p))
	}
	return nil
}

// Finish aligns the stream and returns the encoded prefix of the buffer.
func (w *BitWriter) Finish() ([]byte, error) {
	w.Align()
	if err := w.Err(); err != nil {
		return nil, err
	}
	return w.p[:w.off], nil
}

// BitReader consumes a stream produced by BitWriter.
type BitReader struct {
	p    []byte
	off  int
	cur  uint64
	n    uint
	fail bool
}

// NewBitReader starts reading the bit stream in p.
func NewBitReader(p []byte) BitReader { return BitReader{p: p} }

// ReadBits consumes and returns the next n bits (n <= 57).
func (r *BitReader) ReadBits(n uint) uint64 {
	for r.n < n {
		if r.off >= len(r.p) {
			r.fail = true
			return 0
		}
		r.cur |= uint64(r.p[r.off]) << r.n
		r.off++
		r.n += 8
	}
	v := r.cur & (1<<n - 1)
	r.cur >>= n
	r.n -= n
	return v
}

// ReadBit consumes one bit.
func (r *BitReader) ReadBit() bool { return r.ReadBits(1) != 0 }

// Uvarint consumes a 5-bit-group varint; streams encoding more than 64
// bits fail (a forged continuation chain, not a value).
func (r *BitReader) Uvarint() uint64 {
	var v uint64
	for shift := uint(0); ; shift += 4 {
		if shift >= 68 {
			r.fail = true
			return 0
		}
		g := r.ReadBits(5)
		if shift < 64 {
			v |= (g >> 1) << shift
		} else if g>>1 != 0 {
			r.fail = true
			return 0
		}
		if g&1 == 0 {
			return v
		}
	}
}

// Svarint consumes a zigzag-encoded signed varint.
func (r *BitReader) Svarint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Align discards padding to the next byte boundary; non-zero padding
// bits fail the stream (they cannot come from a BitWriter).
func (r *BitReader) Align() {
	if rem := r.n % 8; rem != 0 {
		if r.ReadBits(rem) != 0 {
			r.fail = true
		}
	}
	// Whole buffered bytes (from the accumulator) stay available.
}

// Bytes consumes n raw bytes from the (byte-aligned) stream and returns
// them as a subslice of the input; nil on underrun.
func (r *BitReader) Bytes(n int) []byte {
	// Drain whole bytes buffered in the accumulator back to the input
	// position: after Align, n%8 == 0 and the accumulator holds only
	// bytes read ahead, so rewinding the offset is exact.
	if r.n%8 != 0 {
		r.fail = true
		return nil
	}
	r.off -= int(r.n / 8)
	r.cur, r.n = 0, 0
	if n < 0 || r.fail || r.off+n > len(r.p) {
		r.fail = true
		return nil
	}
	s := r.p[r.off : r.off+n : r.off+n]
	r.off += n
	return s
}

// Done reports whether the stream was fully and exactly consumed.
func (r *BitReader) Done() bool {
	return !r.fail && r.off == len(r.p) && r.cur == 0
}

// Err reports whether the stream underran or was malformed.
func (r *BitReader) Err() error {
	if r.fail {
		return fmt.Errorf("rdma: truncated or malformed bit stream")
	}
	return nil
}
