package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// Golden pins of the vector samplers' value sequences at the variances the
// protocol workloads actually run. Each case fixes the first 16 draws of a
// 4096-element fill from a dedicated stream and the SHA-256 of the whole
// fill (little-endian int64s), so a change anywhere in the fill — batch
// refills included, 4096 draws span many 512-word batches — fails here.
// The values were generated by the historical samplers; see
// TestSkellamEpoch0GoldenSequence for why they must never change.

type samplerGolden struct {
	mu    float64
	first []int64
	sum   string // hex SHA-256 of the 4096-element fill
}

const goldenFillLen = 4096

func fillDigest(v []int64) string {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func checkSamplerGolden(t *testing.T, name string, fill func(mu float64, out []int64), scalar func(mu float64) func() int64, cases []samplerGolden) {
	t.Helper()
	for _, g := range cases {
		out := make([]int64, goldenFillLen)
		fill(g.mu, out)
		for i, want := range g.first {
			if out[i] != want {
				t.Fatalf("%s(mu=%v)[%d] = %d, want %d", name, g.mu, i, out[i], want)
			}
		}
		if got := fillDigest(out); got != g.sum {
			t.Fatalf("%s(mu=%v): fill digest %s, want %s", name, g.mu, got, g.sum)
		}
		// The value sequence equals scalar draws from a dedicated stream.
		next := scalar(g.mu)
		for i := range out {
			if v := next(); v != out[i] {
				t.Fatalf("%s(mu=%v): scalar draw %d = %d, vector %d", name, g.mu, i, v, out[i])
			}
		}
	}
}

// TestSkellamEpoch0GoldenKnuthRegime pins epoch 0 at the Knuth-regime
// variances of the benchmark's XNoise components: μ = 3.125 and
// μ = 100/992 (components k = 0 and k = 1 of the flat-resumed plan).
func TestSkellamEpoch0GoldenKnuthRegime(t *testing.T) {
	checkSamplerGolden(t, "SkellamVector",
		func(mu float64, out []int64) { SkellamVector(stream("epoch0-knuth-golden"), mu, out) },
		func(mu float64) func() int64 {
			s := stream("epoch0-knuth-golden")
			return func() int64 { return Skellam(s, mu) }
		},
		[]samplerGolden{
			{mu: 3.125,
				first: []int64{1, 2, -2, -1, 0, 1, 1, -1, -2, 1, -1, 0, 5, 1, 1, 1},
				sum:   "233f81bc381aeaa24d2f48520950d11fbfbf8e4826f0a4a86da890b8183faeec"},
			{mu: 100.0 / 992,
				first: []int64{0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0},
				sum:   "36f6599cd6d565026576fc1607764861683c67ff848d7a7932c892b631ede5a9"},
		})
}

// TestSkellamEpoch1GoldenSequence pins the NoiseEpoch-1 inversion sampler
// (SkellamVectorInv) at a Knuth-regime and a table-heavy variance.
func TestSkellamEpoch1GoldenSequence(t *testing.T) {
	checkSamplerGolden(t, "SkellamVectorInv",
		func(mu float64, out []int64) { SkellamVectorInv(stream("epoch1-golden"), mu, out) },
		func(mu float64) func() int64 {
			s := stream("epoch1-golden")
			return func() int64 { return SkellamInv(s, mu) }
		},
		[]samplerGolden{
			{mu: 3.125,
				first: []int64{1, 3, -2, -1, -2, 2, -4, 2, 1, 0, 0, 0, -1, 0, -2, -1},
				sum:   "2bd6c1d0df56edb42c9db5a2ca9dc78273745e3a815038284f0cb2ed5727d949"},
			{mu: 16,
				first: []int64{2, 6, -5, -1, -4, 4, -9, 6, 2, 0, -1, -1, -3, -1, -4, -1},
				sum:   "0edf79b62718e63d7fe384cd1d3831dddc9350e9baae982f3e333fd85ae3918a"},
		})
}
