// Package rdma implements the wire protocol between the CaRDS runtime
// and a remote memory server. The paper's systems run over DPDK/RDMA on
// 25 Gb/s ConnectX-4 NICs; Go has no DPDK path, so this package provides
// the closest portable equivalent: a compact binary framing for
// one-sided-style batch read/write verbs over a reliable byte stream
// (TCP, or net.Pipe in tests). The simulated-time experiments never
// touch this code — they charge the netsim cost model instead — but the
// runtime can run against a real cardsd server through internal/remote,
// which proves the data path end to end.
//
// Frame layout (little endian):
//
//	u32 payloadLen | u8 op | payload                       (untagged ops)
//	u32 payloadLen | u8 op | u32 tag | payload             (tagged ops)
//
// Opcodes with the high bit (TagBit) set carry a u32 tag between the
// opcode and the payload; payloadLen never includes the tag. Tags let a
// pipelined client keep many requests in flight and demultiplex
// completions arriving out of order.
//
// A session opens with one plain-framed handshake: the client sends
// PING carrying the protocol version and the negotiable features it
// wants, and the server answers OK with the version and the features
// it grants — or ERR when the versions differ (see Hello). Every frame
// after the handshake, in both directions, carries a CRC32-C trailer
// (crc.go), and on FeatTrace sessions every tagged frame carries the
// trace block (trace.go).
//
// Opcodes (13):
//
//	PING:             u32 version | u32 features           -> OK (same layout) or ERR
//	OK:               u32 version | u32 features
//	ERR:              utf-8 message
//	ERRTAG:           utf-8 message (tagged reply to a failed tagged request)
//	READBATCH-C:      raw bit | compact read tuples        -> DATABATCH-C   (compact.go)
//	DATABATCH-C:      compact scatter-gather reply
//	WRITEBATCH-C:     compact write tuples                 -> ACKBATCH-C
//	WRITEEPOCHBATCH-C: epoch-stamped compact write tuples  -> ACKBATCH-C
//	ACKBATCH-C:       count | rejected bitmap
//	READEPOCHBATCH:   fixed-width read tuples              -> DATAEPOCHBATCH (epoch.go)
//	DATAEPOCHBATCH:   epoch-stamped scatter-gather reply
//	CHASEBATCH:       traversal programs                   -> CHASEDATA     (chase.go)
//	CHASEDATA:        per-program visited paths
package rdma

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Op identifies a frame type.
type Op uint8

// Untagged opcodes: the handshake and its failure reply. The values are
// those of the original protocol, so a peer of any version decodes the
// handshake frames.
const (
	OpPing Op = 3
	OpOK   Op = 5
	OpErr  Op = 6
)

// TagBit marks opcodes whose frames carry a u32 tag after the opcode.
const TagBit Op = 0x80

// Tagged opcodes of the fixed-width families (the compact ones live in
// compact.go).
const (
	// OpErrTag reports failure of the tagged request with the same tag.
	OpErrTag Op = TagBit | 0x05
	// OpReadEpochBatch is a batch read whose reply carries each object's
	// stored epoch; answered by OpDataEpochBatch.
	OpReadEpochBatch Op = TagBit | 0x09
	// OpDataEpochBatch is the epoch-stamped scatter-gather reply to
	// OpReadEpochBatch.
	OpDataEpochBatch Op = TagBit | 0x0A
	// OpChaseBatch carries count traversal programs in one frame (the
	// server-side pointer-chase offload — see chase.go). Answered by one
	// OpChaseData (same tag).
	OpChaseBatch Op = TagBit | 0x0B
	// OpChaseData is the per-program path reply to OpChaseBatch: every
	// object visited plus the terminal status and final address.
	OpChaseData Op = TagBit | 0x0C
)

// Tagged reports whether frames with this opcode carry a u32 tag.
func (o Op) Tagged() bool { return o&TagBit != 0 }

func (o Op) String() string {
	switch o {
	case OpPing:
		return "PING"
	case OpOK:
		return "OK"
	case OpErr:
		return "ERR"
	case OpErrTag:
		return "ERRTAG"
	case OpReadEpochBatch:
		return "READEPOCHBATCH"
	case OpDataEpochBatch:
		return "DATAEPOCHBATCH"
	case OpChaseBatch:
		return "CHASEBATCH"
	case OpChaseData:
		return "CHASEDATA"
	case OpReadBatchC:
		return "READBATCH-C"
	case OpDataBatchC:
		return "DATABATCH-C"
	case OpWriteBatchC:
		return "WRITEBATCH-C"
	case OpWriteEpochBatchC:
		return "WRITEEPOCHBATCH-C"
	case OpAckBatchC:
		return "ACKBATCH-C"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// MaxFrame bounds a frame payload (16 MiB), protecting both sides from
// corrupt length prefixes.
const MaxFrame = 16 << 20

// Frame is one decoded protocol message. Tag is meaningful only for
// tagged opcodes (Op.Tagged) and is zero otherwise. HasExt marks a
// tagged frame carrying the fixed trace block of a FeatTrace session
// (see trace.go); Ext is its raw bytes, decoded via TraceCtx or
// ServerStamp. Both are value fields so the frame stays allocation-free.
type Frame struct {
	Op      Op
	Tag     uint32
	HasExt  bool
	Ext     [traceExtSize]byte
	Payload []byte
}

// headerSize is the fixed per-frame overhead: u32 length + u8 opcode.
// Tagged opcodes add tagSize more bytes.
const (
	headerSize = 5
	tagSize    = 4
)

// WireSize returns the number of bytes the frame occupies on the wire,
// header included — the unit the transport byte counters account in.
func (f Frame) WireSize() uint64 {
	n := headerSize + uint64(len(f.Payload))
	if f.Op.Tagged() {
		n += tagSize
		if f.HasExt {
			n += traceExtSize
		}
	}
	return n
}

// WriteFrame encodes and writes one frame, unbuffered: header and
// payload are separate writes. Sessions send through a FrameWriter
// (frameio.go) instead; this form serves the plain-framed handshake.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrame {
		return fmt.Errorf("rdma: frame too large (%d bytes)", len(f.Payload))
	}
	// Pooled scratch: a stack array would escape through the io.Writer
	// interface call, costing one heap allocation per frame.
	hdr := GetBuf(headerSize + tagSize + traceExtSize)
	defer PutBuf(hdr)
	n := putHeader(hdr, f)
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads and decodes one frame.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: oversized frame (%d bytes)", n)
	}
	f := Frame{Op: Op(hdr[4])}
	if f.Op.Tagged() {
		var tag [tagSize]byte
		if _, err := io.ReadFull(r, tag[:]); err != nil {
			return Frame{}, err
		}
		f.Tag = binary.LittleEndian.Uint32(tag[:])
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// ReadReq is one (ds, idx, size) read tuple, as carried by the batch
// read verbs.
type ReadReq struct {
	DS, Idx, Size uint32
}

// ErrFrame builds an ERR frame carrying a message.
func ErrFrame(msg string) Frame { return Frame{Op: OpErr, Payload: []byte(msg)} }

// ErrTagFrame builds a tagged ERR frame so a pipelined peer can route the
// failure to the request with the same tag.
func ErrTagFrame(tag uint32, msg string) Frame {
	return Frame{Op: OpErrTag, Tag: tag, Payload: []byte(msg)}
}

// ProtocolVersion is the wire dialect this package speaks: CRC-trailed
// framing after the handshake, the compact batch verbs, the epoch and
// chase verbs, and the two negotiable features below. Version 1 was the
// per-feature negotiation protocol whose PING carried a bare feature
// mask; version 2 had no raw bit in front of READBATCH-C tuples. Peers
// on any other version are refused at the handshake.
const ProtocolVersion uint32 = 3

// Negotiable features (u32 bit mask in the handshake). Everything else
// in the dialect is mandatory.
const (
	// FeatTrace: tagged frames carry the trace block (trace.go) — the
	// client's span context out, the server's timing stamps back.
	FeatTrace uint32 = 1 << 3
	// FeatCompress: the peer accepts LZ-compressed segments in compact
	// batches (compact.go). It permits LZ, it does not mandate it: on a
	// FeatCompress session the client decides per session, from measured
	// read latency, whether LZ pays on this link — its write tuples ship
	// raw and its READBATCH-Cs carry the raw bit while it does not — and
	// both ends still skip data structures that do not shrink. Off keeps
	// every object raw inside the same frames.
	FeatCompress uint32 = 1 << 7

	// Features is every negotiable bit.
	Features = FeatTrace | FeatCompress
)

// helloSize is the handshake payload: u32 version | u32 features.
const helloSize = 8

// Hello builds a handshake frame (op is OpPing for the client's offer,
// OpOK for the server's grant) carrying ProtocolVersion and feats.
func Hello(op Op, feats uint32) Frame {
	p := make([]byte, helloSize)
	binary.LittleEndian.PutUint32(p[0:], ProtocolVersion)
	binary.LittleEndian.PutUint32(p[4:], feats)
	return Frame{Op: op, Payload: p}
}

// DecodeHello parses a handshake payload. ok is false when the payload
// is not a handshake of any version (a version-1 peer's bare feature
// mask, for instance); the caller compares version itself.
func DecodeHello(p []byte) (version, feats uint32, ok bool) {
	if len(p) != helloSize {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(p[0:]), binary.LittleEndian.Uint32(p[4:]), true
}
