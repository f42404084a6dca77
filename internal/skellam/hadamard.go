package skellam

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/prg"
)

// nextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// fwht performs the in-place fast Walsh–Hadamard transform of x, whose
// length must be a power of two. The transform is self-inverse up to a
// factor of len(x); callers normalize by 1/sqrt(len) to make it orthonormal.
func fwht(x []float64) {
	n := len(x)
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("skellam: fwht length %d is not a power of two", n))
	}
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
}

// signCache holds the last expanded sign diagonal. Every client of a
// round rotates under the round's one seed, so one entry serves a round's
// encodes; a different seed replaces it.
type signCache struct {
	seed  prg.Seed
	words []uint64
}

var lastSigns atomic.Pointer[signCache]

// signWords returns the ±1 diagonal for the first p coordinates of the
// rotation seeded by seed, packed 64 signs per word: bit i%64 of word i/64
// set means +1. The words are the seed stream's first ⌈p/64⌉ draws, so a
// longer expansion extends a shorter one. All clients of a round share
// the seed, so they apply the same rotation — a requirement for the
// rotated coordinates to aggregate meaningfully.
func signWords(seed prg.Seed, p int) []uint64 {
	n := (p + 63) / 64
	if c := lastSigns.Load(); c != nil && c.seed == seed && len(c.words) >= n {
		return c.words[:n]
	}
	s := prg.NewStream(seed)
	words := make([]uint64, n)
	for i := range words {
		words[i] = s.Uint64()
	}
	lastSigns.Store(&signCache{seed: seed, words: words})
	return words
}

// negative reports whether the diagonal entry of coordinate i is −1.
func negative(signs []uint64, i int) bool {
	return signs[i/64]>>(i%64)&1 == 0
}

// Rotate applies the seeded randomized Hadamard transform (1/√p)·H·D to x,
// padding to the next power of two p. The returned slice has length p.
//
// The rotation "flattens" the update: after HD, every coordinate is a
// ±-signed sum of all inputs, so coordinate magnitudes concentrate around
// ‖x‖₂/√p regardless of how spiky x was. That is what lets DSkellam bound
// per-coordinate ranges with the signal-bound multiplier k (paper §6.1,
// k = 3).
func Rotate(seed prg.Seed, x []float64) []float64 {
	buf := make([]float64, nextPow2(len(x)))
	rotateInto(buf, seed, x, 1, 1)
	return buf
}

// rotateInto writes post·(1/√p)·H·D·(pre·x) into dst, whose length p is
// the padded dimension. Each coordinate is multiplied in exactly that
// order — pre, the ±1 sign, the transform, 1/√p, post — so a factor of 1
// leaves every value bit-identical to omitting it (Rotate), and Encode's
// clip factor and grid scale ride along in the same passes instead of
// passes of their own.
func rotateInto(dst []float64, seed prg.Seed, x []float64, pre, post float64) {
	signs := signWords(seed, len(dst))
	for i, v := range x {
		v *= pre
		if negative(signs, i) {
			v = -v
		}
		dst[i] = v
	}
	clear(dst[len(x):])
	fwht(dst)
	inv := 1 / math.Sqrt(float64(len(dst)))
	for i := range dst {
		dst[i] = dst[i] * inv * post
	}
}

// Unrotate inverts Rotate, returning the first dim coordinates:
// x = D·H·(1/√p)·y.
func Unrotate(seed prg.Seed, y []float64, dim int) []float64 {
	p := len(y)
	if p&(p-1) != 0 {
		panic(fmt.Sprintf("skellam: Unrotate length %d is not a power of two", p))
	}
	buf := make([]float64, p)
	copy(buf, y)
	fwht(buf)
	inv := 1 / math.Sqrt(float64(p))
	signs := signWords(seed, p)
	out := buf[:dim:dim]
	for i := range out {
		v := buf[i] * inv
		if negative(signs, i) {
			v = -v
		}
		out[i] = v
	}
	return out
}
