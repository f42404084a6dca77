// Package transport carries protocol messages between the server and
// clients over a star topology (all client↔client traffic is relayed by
// the server, as in the paper's server-mediated network, §3.3).
//
// Two implementations are provided: an in-memory transport (channels) used
// by simulations and tests, and a TCP transport (length-prefixed gob
// frames) used by the deployment-flavor binaries. Both present the same
// interfaces, so the protocol drivers in package core are transport-
// agnostic.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/endian"
)

// Frame is one protocol message on the wire. Payload encoding is the
// caller's concern (package core uses gob).
type Frame struct {
	From    uint64
	Stage   int
	Payload []byte
}

// ClientConn is a client's connection to the server.
type ClientConn interface {
	// Send delivers a frame to the server.
	Send(Frame) error
	// Recv blocks for the next frame from the server.
	Recv(ctx context.Context) (Frame, error)
	// Close severs the connection (used to exercise dropout).
	Close() error
}

// ServerConn is the server's endpoint.
type ServerConn interface {
	// SendTo delivers a frame to one client.
	SendTo(client uint64, f Frame) error
	// Recv blocks for the next frame from any client. Frames from closed
	// clients stop arriving; callers use deadlines/thresholds, as the
	// protocol prescribes.
	Recv(ctx context.Context) (Frame, error)
	// Clients lists the currently connected client ids.
	Clients() []uint64
	// Close shuts the server endpoint down.
	Close() error
}

// ErrClosed is returned on use of a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// --- wire framing (shared by the TCP transport) ---

const maxFrameBytes = 1 << 28 // 256 MiB: above any chunked update we send

// writeFrame writes a length-prefixed frame. Header and payload go out in
// one gathered write (writev on TCP connections), so a frame never splits
// into a 20-byte segment followed by the payload.
func writeFrame(w io.Writer, f Frame) error {
	var hdr [20]byte
	if len(f.Payload) > maxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(f.Payload))
	}
	binary.LittleEndian.PutUint64(hdr[0:], f.From)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.Stage))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(f.Payload)))
	bufs := net.Buffers{hdr[:], f.Payload}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads a length-prefixed frame.
func readFrame(r io.Reader) (Frame, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint64(hdr[12:])
	if n > maxFrameBytes {
		return Frame{}, fmt.Errorf("transport: declared frame size %d exceeds limit", n)
	}
	f := Frame{
		From:    binary.LittleEndian.Uint64(hdr[0:]),
		Stage:   int(int32(binary.LittleEndian.Uint32(hdr[8:]))),
		Payload: make([]byte, n),
	}
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// --- bulk little-endian word codecs (shared by the binary payload codecs) ---

// AppendUint64sLE appends xs to dst in little-endian wire order. On
// little-endian hosts the word slab is copied in one memmove; the
// big-endian fallback encodes per element. xs may be exactly the spare
// capacity it is appended into (dst[len(dst):len(dst)+8·len(xs)]): each
// word is read before its own bytes are written, so it is encoded in
// place.
func AppendUint64sLE(dst []byte, xs []uint64) []byte {
	if len(xs) == 0 {
		return dst
	}
	if endian.HostLittle {
		return append(dst, endian.Bytes(xs)...)
	}
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

// AppendBlob appends a 16-bit-length-prefixed byte blob to dst — the
// shared small-field codec of the session persistence records
// (secagg/persist.go, lightsecagg/persist.go) and the handshake signature
// section (core/handshake.go). The caller guarantees len(b) fits a
// uint16 (all users carry fixed-size crypto material: 32-byte keys,
// 64-byte signatures); larger blobs are a programmer error and panic.
func AppendBlob(dst, b []byte) []byte {
	if len(b) > 1<<16-1 {
		panic(fmt.Sprintf("transport: blob of %d bytes exceeds uint16 framing", len(b)))
	}
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(b)))
	dst = append(dst, l[:]...)
	return append(dst, b...)
}

// DecodeBlob decodes a blob written by AppendBlob into a fresh slice,
// returning the remaining bytes. maxLen caps the declared length so a
// hostile prefix cannot force a large allocation; a zero-length blob
// decodes as nil.
func DecodeBlob(src []byte, maxLen int) ([]byte, []byte, error) {
	if len(src) < 2 {
		return nil, nil, fmt.Errorf("transport: blob header truncated")
	}
	n := int(binary.LittleEndian.Uint16(src))
	src = src[2:]
	if n > maxLen {
		return nil, nil, fmt.Errorf("transport: declared blob of %d bytes exceeds cap %d", n, maxLen)
	}
	if len(src) < n {
		return nil, nil, fmt.Errorf("transport: blob truncated")
	}
	var out []byte
	if n > 0 {
		out = append([]byte(nil), src[:n]...)
	}
	return out, src[n:], nil
}

// DecodeUint64sLE decodes n little-endian uint64 words from src into a
// fresh slice, returning the remaining bytes. It is the inverse of
// AppendUint64sLE.
func DecodeUint64sLE(src []byte, n int) ([]uint64, []byte, error) {
	return decodeWordsLE[uint64](src, n)
}

func decodeWordsLE[W ~uint64](src []byte, n int) ([]W, []byte, error) {
	if n < 0 || len(src) < n*8 {
		return nil, nil, fmt.Errorf("transport: word slab truncated: need %d bytes, have %d", n*8, len(src))
	}
	if n == 0 {
		return nil, src, nil
	}
	out := make([]W, n)
	if endian.HostLittle {
		copy(endian.Bytes(out), src[:n*8])
	} else {
		for i := range out {
			out[i] = W(binary.LittleEndian.Uint64(src[i*8:]))
		}
	}
	return out, src[n*8:], nil
}

// MaxSlabWords caps a word slab's count so a hostile count prefix cannot
// force a huge allocation. It is sized to the frame cap: a maximal slab
// plus codec headers slightly exceeds it, so framing, not this cap, is
// the binding limit near the boundary.
const MaxSlabWords = 1 << 25

// AppendSlab appends a word slab, the element-vector layout every binary
// codec shares: [count:4][count × LE u64]. W may be any uint64-based word
// type (ring words, field elements).
func AppendSlab[W ~uint64](dst []byte, xs []W) ([]byte, error) {
	if len(xs) > MaxSlabWords {
		return nil, fmt.Errorf("transport: slab of %d words exceeds wire cap", len(xs))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	return AppendUint64sLE(dst, endian.Words[uint64](endian.Bytes(xs))), nil
}

// DecodeSlab decodes a word slab written by AppendSlab into a fresh slice,
// returning the remaining bytes.
func DecodeSlab(src []byte) ([]uint64, []byte, error) {
	return DecodeSlabOf[uint64](src)
}

// DecodeSlabOf is DecodeSlab into a fresh slice of any uint64-based word
// type, so a codec decodes straight into its element type with no
// intermediate copy.
func DecodeSlabOf[W ~uint64](src []byte) ([]W, []byte, error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("transport: slab header truncated")
	}
	n := int(binary.LittleEndian.Uint32(src))
	if n > MaxSlabWords {
		return nil, nil, fmt.Errorf("transport: declared slab of %d words exceeds wire cap", n)
	}
	return decodeWordsLE[W](src[4:], n)
}
