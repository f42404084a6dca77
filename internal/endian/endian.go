// Package endian exposes the host byte order for the bulk word codecs:
// packages prg, transport and lightsecagg reinterpret []uint64 backing
// memory as wire bytes when — and only when — the host is little-endian,
// falling back to explicit per-word encoding otherwise. Bytes and Words
// are those reinterpretations.
package endian

import "unsafe"

// HostLittle reports whether uint64s are stored little-endian, i.e.
// whether word backing memory already carries the wire byte order.
var HostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Bytes returns the backing memory of xs as a byte slice (host order),
// without copying.
func Bytes[W ~uint64](xs []W) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*8)
}

// Words returns b's memory as len(b)/8 words (host order), without
// copying. b must start 8-byte aligned.
func Words[W ~uint64](b []byte) []W {
	return unsafe.Slice((*W)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}
