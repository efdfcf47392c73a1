package rdma

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// Session frame I/O. Each CRC-trailed frame is four pieces — header,
// tag (and trace block), payload, trailer — and a small-message verb
// stream pays a system call per piece unless something gathers them.
// FrameWriter gathers on the send side; on the receive side a
// FrameBufSize bufio.Reader under ReadFramePooled turns the four
// io.ReadFull calls of a frame into about one read per buffer fill
// (bufio already reads a payload larger than its buffer straight into
// the pooled destination).

// FrameBufSize is the size of the frame writer's coalescing buffer and
// of the bufio.Reader each session's read loop wraps its connection in.
const FrameBufSize = 16 << 10

// FrameWriter writes CRC-trailed session frames (see WriteFrameCRC) with
// at most one system call per frame. A frame that fits in the
// coalescing buffer is copied there and leaves with the next Flush —
// the doorbell; a frame that does not fit goes out at once as a single
// vectored write (net.Buffers, writev on a TCP connection) carrying
// whatever is buffered, its header, the payload by reference and the
// CRC trailer. The payload is never referenced after WriteFrame
// returns, so callers may recycle it immediately.
//
// A FrameWriter is not safe for concurrent use. After an error the
// stream state is unknown and the connection should be abandoned.
type FrameWriter struct {
	w      io.Writer
	buf    []byte // coalesced frames awaiting Flush; cap FrameBufSize
	frames int    // frames in buf

	hdr [headerSize + tagSize + traceExtSize]byte
	tr  [crcSize]byte
	iov [4][]byte   // backing array of vec: no allocation per write
	vec net.Buffers // the pieces of one vectored write

	// onWrite, when non-nil, observes the number of frames each write
	// to w carried.
	onWrite func(frames uint64)
}

// NewFrameWriter returns a FrameWriter on w. onWrite, when non-nil, is
// called after every write to w with the number of frames it carried
// (the frames-per-syscall metric); it must not retain anything.
func NewFrameWriter(w io.Writer, onWrite func(frames uint64)) *FrameWriter {
	return &FrameWriter{w: w, buf: make([]byte, 0, FrameBufSize), onWrite: onWrite}
}

// putHeader encodes f's header — length, opcode, and for tagged frames
// the tag and trace block — into dst, returning its length.
func putHeader(dst []byte, f Frame) int {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(len(f.Payload)))
	dst[4] = byte(f.Op)
	n := headerSize
	if f.Op.Tagged() {
		binary.LittleEndian.PutUint32(dst[headerSize:], f.Tag)
		n += tagSize
		if f.HasExt {
			n += copy(dst[n:], f.Ext[:])
		}
	}
	return n
}

// WriteFrame queues f for the next Flush when it fits in the coalescing
// buffer, and otherwise writes the buffered frames and f in one
// vectored write.
func (fw *FrameWriter) WriteFrame(f Frame) error {
	if len(f.Payload) > MaxFrame {
		return fmt.Errorf("rdma: frame too large (%d bytes)", len(f.Payload))
	}
	hn := putHeader(fw.hdr[:], f)
	crc := frameCRC(f)
	if len(fw.buf)+hn+len(f.Payload)+crcSize <= cap(fw.buf) {
		fw.buf = append(fw.buf, fw.hdr[:hn]...)
		fw.buf = append(fw.buf, f.Payload...)
		fw.buf = binary.LittleEndian.AppendUint32(fw.buf, crc)
		fw.frames++
		return nil
	}
	binary.LittleEndian.PutUint32(fw.tr[:], crc)
	fw.vec = fw.iov[:0]
	if len(fw.buf) > 0 {
		fw.vec = append(fw.vec, fw.buf)
	}
	fw.vec = append(fw.vec, fw.hdr[:hn])
	if len(f.Payload) > 0 {
		fw.vec = append(fw.vec, f.Payload)
	}
	fw.vec = append(fw.vec, fw.tr[:])
	_, err := fw.vec.WriteTo(fw.w)
	// Drop every reference to the caller's payload before returning.
	fw.iov = [4][]byte{}
	fw.vec = nil
	fw.wrote(fw.frames + 1)
	return err
}

// Buffered returns the number of frames waiting for the next Flush.
func (fw *FrameWriter) Buffered() int { return fw.frames }

// Flush writes the buffered frames, if any, in one write.
func (fw *FrameWriter) Flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	fw.wrote(fw.frames)
	return err
}

// wrote empties the buffer after a write that carried frames frames.
func (fw *FrameWriter) wrote(frames int) {
	fw.buf = fw.buf[:0]
	fw.frames = 0
	if fw.onWrite != nil {
		fw.onWrite(uint64(frames))
	}
}
