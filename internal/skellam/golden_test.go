package skellam

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/prg"
)

// TestEncodeGolden pins Encode's output words for a fixed update, codec
// and rounding stream, once with the L2 clip inactive and once with it
// scaling the update down. Encode's multiply order (clip factor, sign
// diagonal, Hadamard transform, 1/√p, scale) decides every rounding
// boundary, so any reordering shows up here. The values were generated
// by the historical unfused codec.
func TestEncodeGolden(t *testing.T) {
	p := Params{
		Dim:          1000, // pads to 1024
		Bits:         20,
		Clip:         1.0,
		Scale:        300,
		Beta:         math.Exp(-0.5),
		K:            3,
		NumClients:   16,
		RotationSeed: prg.NewSeed([]byte("encode-golden-rotation")),
	}
	for _, tc := range []struct {
		name  string
		norm  float64 // L2 norm of the update; above Clip activates clipping
		first []uint64
		sum   string
	}{
		{"clip-inactive", 0.5,
			[]uint64{0x4, 0xffffd, 0xffffb, 0xffffd, 0x0, 0x9, 0x7, 0x2, 0xffffb, 0xffffb, 0x1, 0xffffc},
			"cc3b3fddb29407684e981a3438864831977092680d4a709e81a940adc50fcb9b"},
		{"clip-active", 7.5,
			[]uint64{0x8, 0xffffb, 0xffff5, 0xffff9, 0x1, 0x11, 0xd, 0x3, 0xffff6, 0xffff7, 0x2, 0xffff7},
			"79ddd1f97fb23f29aa27b72cd466ef2e50e488c489f6d5f74e15b43472e04087"},
	} {
		x := randomUpdate(prg.NewStream(prg.NewSeed([]byte("encode-golden-input"))), p.Dim, tc.norm)
		v, err := Encode(p, x, prg.NewStream(prg.NewSeed([]byte("encode-golden-rounding"))))
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 0, 8*v.Len())
		for _, w := range v.Data {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		h := sha256.Sum256(b)
		sum := hex.EncodeToString(h[:])
		for i, want := range tc.first {
			if v.Data[i] != want {
				t.Fatalf("%s: Encode word %d = %#x, want %#x", tc.name, i, v.Data[i], want)
			}
		}
		if sum != tc.sum {
			t.Fatalf("%s: Encode digest %s, want %s", tc.name, sum, tc.sum)
		}
	}
}
