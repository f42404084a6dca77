package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is read with a minimal decoder of the pprof protobuf
// format (github.com/google/pprof proto/profile.proto: sample = 2,
// location = 4, function = 5, string_table = 6), so the benchmark needs
// nothing beyond the standard library.

// cpuLayers are the layers profile samples are attributed to.
var cpuLayers = []string{"x25519", "skellam", "aes_ctr", "ring", "field", "shamir", "aead",
	"sha256", "ed25519", "codec", "engine", "transport", "gc", "other"}

// pbField calls fn for every top-level field of a protobuf message:
// varints arrive in v, length-delimited fields in b.
func pbField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// pbUints reads a repeated integer field in either packed or plain form.
func pbUints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// stackSamples decodes a gzipped CPU profile into (leaf-first function
// names, sample count) pairs; inlined frames appear innermost first.
func stackSamples(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct{ locs, vals []uint64 }
	var samples []sample
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]uint64{}
	var strs []string
	err = pbField(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := pbField(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = pbUints(s.locs, v, b)
				case 2:
					s.vals, err = pbUints(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, 0, len(samples))
	counts := make([]int64, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					frames = append(frames, strs[idx])
				}
			}
		}
		stacks = append(stacks, frames)
		counts = append(counts, int64(s.vals[0]))
	}
	return stacks, counts, nil
}

// cpuShares attributes every profile sample to one layer and returns each
// layer's share of all samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	stacks, counts, err := stackSamples(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var total float64
	for i, st := range stacks {
		out[classify(st)] += float64(counts[i])
		total += float64(counts[i])
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out, nil
}

// reproLayer maps this module's packages to layers. The field package is
// absent on purpose: its kernels belong to whoever calls them (see
// classify).
var reproLayer = map[string]string{
	"dh": "x25519", "rng": "skellam", "xnoise": "skellam", "dgauss": "skellam",
	"prg": "aes_ctr", "ring": "ring", "lightsecagg": "field", "shamir": "shamir",
	"aead": "aead", "sig": "ed25519", "skellam": "codec", "endian": "codec",
	"engine": "engine", "core": "engine", "secagg": "engine", "secaggplus": "engine",
	"combine": "engine", "transcript": "engine", "sessionstore": "engine", "pipeline": "engine",
	"transport": "transport",
}

// codecFuncs are the wire payload codecs inside otherwise non-codec
// packages (core/codec.go, secagg/bundlecodec.go, transport's word codecs).
var codecFuncs = []string{"repro/internal/core.encode", "repro/internal/core.decode",
	"repro/internal/core.appendUint64Slab", "repro/internal/core.gobDecode",
	"repro/internal/secagg.encodeBundle", "repro/internal/secagg.decodeBundle",
	"repro/internal/secagg.EncodeBundle", "repro/internal/secagg.DecodeBundle",
	"repro/internal/transport.AppendUint64sLE", "repro/internal/transport.DecodeUint64sLE",
	"repro/internal/transport.AppendBlob", "repro/internal/transport.DecodeBlob"}

// gcFuncs mark the garbage collector's own work in the runtime.
var gcFuncs = []string{"runtime.gc", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.scanframeworker", "runtime.markroot", "runtime.greyobject", "runtime.findObject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
	"runtime.(*gcWork)", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.typePointers",
	"runtime.(*mspan).typePointers", "runtime.markBits", "runtime.(*gcBits)"}

// neutral frames carry no layer of their own; the walk continues to the
// caller.
var neutralPrefixes = []string{"runtime.", "internal/", "math", "sync", "sort.", "slices.",
	"bytes.", "reflect.", "encoding/binary.", "errors.", "fmt.", "io.", "unicode",
	"strconv.", "time.", "crypto/subtle.", "crypto/internal/fips140/subtle.",
	"crypto/internal/fips140deps/", "crypto/internal/fips140/alias.",
	"crypto/internal/fips140/edwards25519/field.", "crypto/internal/fips140/check",
	"crypto/internal/fips140only"}

// stdLayer maps standard-library crypto and codec frames to their kind.
// Order matters: GCM sits inside the AES package path.
var stdLayer = []struct{ prefix, layer string }{
	{"crypto/internal/fips140/aes/gcm.", "aead"}, {"crypto/cipher.(*gcm", "aead"},
	{"crypto/cipher.gcm", "aead"}, {"golang.org/x/crypto/chacha20", "aead"},
	{"vendor/golang.org/x/crypto/chacha20", "aead"}, {"vendor/golang.org/x/crypto/internal/poly1305", "aead"},
	{"crypto/internal/fips140/aes.", "aes_ctr"}, {"crypto/aes.", "aes_ctr"}, {"crypto/cipher.", "aes_ctr"},
	{"crypto/internal/fips140/sha256.", "sha256"}, {"crypto/sha256.", "sha256"},
	{"crypto/internal/fips140/hmac.", "sha256"}, {"crypto/hmac.", "sha256"},
	{"crypto/internal/fips140/hkdf.", "sha256"}, {"crypto/hkdf.", "sha256"},
	{"crypto/internal/fips140/sha512.", "ed25519"}, {"crypto/sha512.", "ed25519"},
	{"crypto/internal/fips140/edwards25519.", "ed25519"}, {"crypto/internal/fips140/ed25519.", "ed25519"},
	{"crypto/ed25519.", "ed25519"},
	{"crypto/internal/fips140/ecdh.", "x25519"}, {"crypto/ecdh.", "x25519"},
	{"golang.org/x/crypto/curve25519", "x25519"},
	{"encoding/gob.", "codec"},
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classify attributes one stack (leaf first) to a layer: the leaf's own
// layer, or — for frames with none, such as runtime helpers, math and
// curve field arithmetic — the first caller's. Collector work counts as
// gc. Kernels of the field package count as their caller's layer, which
// is field for LightSecAgg's coding and shamir for secret sharing.
func classify(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcFuncs) {
			return "gc"
		}
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if hasAnyPrefix(fn, codecFuncs) {
				return "codec"
			}
			pkg, _, _ := strings.Cut(rest, ".")
			if l, ok := reproLayer[pkg]; ok {
				return l
			}
			continue // the field package: its caller decides
		}
		for _, s := range stdLayer {
			if strings.HasPrefix(fn, s.prefix) {
				return s.layer
			}
		}
		// Symbols without a package path (assembly and C helpers, such as
		// the race detector's) are neutral too.
		if !hasAnyPrefix(fn, neutralPrefixes) && strings.Contains(fn, ".") {
			return "other"
		}
	}
	return "other"
}
