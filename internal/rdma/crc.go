package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame integrity. TCP's 16-bit checksum misses roughly one corrupted
// segment in 65k, and a chaos transport (internal/faultnet) flips bytes
// on purpose — either way a flipped payload byte would silently corrupt
// far-memory objects. Every session therefore uses checksummed framing
// from the first frame after the handshake: every frame is followed by
// a u32 CRC32-C (Castagnoli,
// the polynomial RDMA NICs and iSCSI use) computed over the opcode, the
// tag (when present), and the payload. The length prefix is not
// summed — a corrupted length desynchronizes the stream, which the
// checksum then catches on the misframed bytes that follow.
//
// The handshake PING and its OK/ERR reply are plain-framed (they must
// be readable by a peer of any protocol version), so the switch happens
// atomically after that first exchange on both sides. A corrupted
// handshake surfaces as a version mismatch or a malformed reply, which
// the client retries like any other failed dial.

// ErrCRC reports a checksum mismatch: the frame (and everything after
// it on this stream) cannot be trusted. The only safe recovery is to
// drop the connection and replay idempotent work on a fresh one.
var ErrCRC = errors.New("rdma: frame checksum mismatch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC sums opcode, tag (tagged frames), the trace block (extended
// frames) and payload. It runs once per frame on the data path, so it
// streams through crc32.Update rather than allocating a hash.Hash32
// digest per call.
func frameCRC(f Frame) uint32 {
	// Pooled scratch: the header slice reaches crc32's assembly kernels,
	// so a stack array would escape and allocate on every frame.
	hdr := GetBuf(headerSize + traceExtSize)
	defer PutBuf(hdr)
	hdr[0] = byte(f.Op)
	n := 1
	if f.Op.Tagged() {
		binary.LittleEndian.PutUint32(hdr[1:], f.Tag)
		n += tagSize
		if f.HasExt {
			n += copy(hdr[n:], f.Ext[:])
		}
	}
	crc := crc32.Update(0, castagnoli, hdr[:n])
	return crc32.Update(crc, castagnoli, f.Payload)
}

// crcSize is the per-frame overhead of checksummed framing.
const crcSize = 4

// WriteFrameCRC writes one frame followed by its CRC32-C trailer.
func WriteFrameCRC(w io.Writer, f Frame) error {
	if err := WriteFrame(w, f); err != nil {
		return err
	}
	tr := GetBuf(crcSize)
	defer PutBuf(tr)
	binary.LittleEndian.PutUint32(tr, frameCRC(f))
	_, err := w.Write(tr)
	return err
}

// ReadFrameCRC reads one checksummed frame and verifies its trailer,
// returning ErrCRC (wrapped with the opcode) on mismatch.
func ReadFrameCRC(r io.Reader) (Frame, error) {
	f, err := ReadFrame(r)
	if err != nil {
		return Frame{}, err
	}
	var tr [crcSize]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return Frame{}, err
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != frameCRC(f) {
		return Frame{}, fmt.Errorf("%w (frame %s)", ErrCRC, f.Op)
	}
	return f, nil
}
