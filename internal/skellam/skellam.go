// Package skellam implements the DSkellam client-side encoding and
// server-side decoding used by Dordis's distributed-DP prototype (paper §5:
// "employs the distributed DP protocol with DSkellam [6]").
//
// The pipeline follows Agarwal, Kairouz & Liu (NeurIPS 2021):
//
//	clip → randomized Hadamard rotation → scale → conditional stochastic
//	rounding → (Skellam noise, added by the XNoise layer) → wrap in ℤ_{2^b}
//
// and the decoder reverses it:
//
//	center mod 2^b → unscale → inverse rotation.
//
// All encoded vectors live in ring.Vector so that SecAgg masking, XNoise
// addition/removal, and aggregation operate on the same representation.
// Parameters mirror the paper's configuration (§6.1): signal-bound
// multiplier k = 3, rounding bias β = e^-0.5, bit width b = 20.
package skellam

import (
	"fmt"
	"math"

	"repro/internal/prg"
	"repro/internal/ring"
)

// Params configures the DSkellam codec for one training task. The same
// Params value must be used by every client and the server within a round.
type Params struct {
	Dim        int     // model dimension before padding
	Bits       uint    // ring bit width b
	Clip       float64 // L2 clipping bound c (model units)
	Scale      float64 // granularity scale s: model units → integer grid
	Beta       float64 // conditional-rounding bias β (e.g. e^-0.5)
	K          float64 // signal bound multiplier k
	NumClients int     // n, clients summed per round (for capacity checks)

	// RotationSeed drives the shared randomized Hadamard rotation; all
	// parties in a round must agree on it (the server broadcasts it).
	RotationSeed prg.Seed
}

// PaddedDim returns the power-of-two dimension after Hadamard padding.
func (p Params) PaddedDim() int { return nextPow2(p.Dim) }

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.Dim <= 0:
		return fmt.Errorf("skellam: Dim must be positive, got %d", p.Dim)
	case p.Bits < 2 || p.Bits > 63:
		return fmt.Errorf("skellam: Bits %d out of [2,63]", p.Bits)
	case p.Clip <= 0:
		return fmt.Errorf("skellam: Clip must be positive, got %v", p.Clip)
	case p.Scale <= 0:
		return fmt.Errorf("skellam: Scale must be positive, got %v", p.Scale)
	case p.Beta <= 0 || p.Beta >= 1:
		return fmt.Errorf("skellam: Beta %v out of (0,1)", p.Beta)
	case p.K <= 0:
		return fmt.Errorf("skellam: K must be positive, got %v", p.K)
	case p.NumClients <= 0:
		return fmt.Errorf("skellam: NumClients must be positive, got %d", p.NumClients)
	}
	return nil
}

// InflatedClip returns the post-rounding L2 bound c̃ in integer-grid units.
// Conditional stochastic rounding retries until the rounded vector
// satisfies ‖z‖₂ ≤ c̃, where (following the DDGauss/DSkellam analysis)
//
//	c̃² = (s·c)² + p/4 + √(2·ln(1/β)) · (s·c + √p/2)
//
// with p the padded dimension. c̃ is the L2 sensitivity Δ₂ used for
// accounting.
func (p Params) InflatedClip() float64 {
	sc := p.Scale * p.Clip
	pd := float64(p.PaddedDim())
	c2 := sc*sc + pd/4 + math.Sqrt(2*math.Log(1/p.Beta))*(sc+math.Sqrt(pd)/2)
	return math.Sqrt(c2)
}

// Sensitivities returns the (Δ₁, Δ₂) integer-grid sensitivities for RDP
// accounting: Δ₂ = c̃ and Δ₁ ≤ min(c̃·√p, c̃²) (Cauchy–Schwarz and
// integrality, respectively).
func (p Params) Sensitivities() (delta1, delta2 float64) {
	d2 := p.InflatedClip()
	d1 := math.Min(d2*math.Sqrt(float64(p.PaddedDim())), d2*d2)
	return d1, d2
}

// NoiseScale converts a central noise variance expressed in model units
// (σ², what the DP planner works with when using continuous semantics)
// into the integer-grid Skellam variance μ = (s·σ)² = s²·σ².
func (p Params) NoiseScale(sigma2 float64) float64 {
	return p.Scale * p.Scale * sigma2
}

// ChooseScale returns the largest granularity scale s such that the sum of
// n encoded client vectors plus central noise of std centralSigma (model
// units) fits the signed ring range [−2^(b−1), 2^(b−1)) with k-sigma slack:
//
//	n·(k·s·c/√p + 1/2) + k·s·σ ≤ 2^(b−1) − 1
//
// The left side bounds each aggregate coordinate: after rotation every
// client coordinate is subgaussian with scale s·c/√p, rounding adds ±1/2,
// and the noise contributes k standard deviations of s·σ.
func ChooseScale(dim int, clip float64, bits uint, nClients int, centralSigma, k float64) (float64, error) {
	if dim <= 0 || clip <= 0 || nClients <= 0 || k <= 0 {
		return 0, fmt.Errorf("skellam: invalid ChooseScale arguments")
	}
	pd := float64(nextPow2(dim))
	capacity := float64(int64(1)<<(bits-1)) - 1 - float64(nClients)/2
	if capacity <= 0 {
		return 0, fmt.Errorf("skellam: ring of %d bits cannot hold %d clients", bits, nClients)
	}
	denom := float64(nClients)*k*clip/math.Sqrt(pd) + k*centralSigma
	if denom <= 0 {
		return 0, fmt.Errorf("skellam: degenerate scale denominator")
	}
	return capacity / denom, nil
}

// clipFactor returns the factor that scales x to L2 norm at most c: 1
// when x is already within the bound (multiplying by 1 changes no value).
func clipFactor(x []float64, c float64) float64 {
	var norm2 float64
	for _, v := range x {
		norm2 += v * v
	}
	norm := math.Sqrt(norm2)
	if norm <= c || norm == 0 {
		return 1
	}
	return c / norm
}

// maxRoundingAttempts bounds the conditional-rounding retry loop. The
// acceptance probability is ≥ 1−β by construction, so hitting the bound
// has probability ≤ β^attempts (≈ 1e-9 for β=e^-0.5).
const maxRoundingAttempts = 40

// roundingBatch is the number of rounding uniforms read from the stream
// per bulk read.
const roundingBatch = 512

// stochasticRound rounds y coordinate-wise to integers into v (mod 2^b),
// rounding up with probability equal to the fractional part, retrying
// until the result's L2 norm is within bound. Each attempt reads exactly
// one stream word per coordinate, in bulk reads that consume the stream
// exactly as one Float64 call per coordinate would. It returns an error
// only if the retry budget is exhausted, which indicates misconfigured
// parameters.
func stochasticRound(s *prg.Stream, y []float64, bound float64, v ring.Vector) error {
	m := v.Mask()
	b2 := bound * bound
	var words [roundingBatch]uint64
	for attempt := 0; attempt < maxRoundingAttempts; attempt++ {
		var norm2 float64
		for base := 0; base < len(y); base += roundingBatch {
			ys := y[base:min(base+roundingBatch, len(y))]
			ws := words[:len(ys)]
			s.ReadUint64(ws)
			out := v.Data[base : base+len(ys)]
			for i, yv := range ys {
				fl := math.Floor(yv)
				frac := yv - fl
				z := int64(fl)
				if float64(ws[i]>>11)/(1<<53) < frac { // the stream's Float64
					z++
				}
				out[i] = uint64(z) & m
				norm2 += float64(z) * float64(z)
			}
		}
		if norm2 <= b2 {
			return nil
		}
	}
	return fmt.Errorf("skellam: conditional rounding failed after %d attempts (bound %v)", maxRoundingAttempts, bound)
}

// Encode transforms a raw model update (model units, length Dim) into the
// masked-aggregation input space ℤ_{2^b}^p. Noise is NOT added here — the
// XNoise layer adds its decomposed components on top, so that Orig, XNoise,
// and the rebasing baseline can share one codec. rnd drives the stochastic
// rounding and is private to the client.
//
// The pipeline runs fused over one float64 scratch vector: clip factor,
// sign diagonal, Hadamard transform, 1/√p and the grid scale are applied
// in that order per coordinate (rotateInto), and the rounding writes the
// output ring vector directly, so an encode makes two allocations.
func Encode(p Params, x []float64, rnd *prg.Stream) (ring.Vector, error) {
	if err := p.Validate(); err != nil {
		return ring.Vector{}, err
	}
	if len(x) != p.Dim {
		return ring.Vector{}, fmt.Errorf("skellam: input dim %d, want %d", len(x), p.Dim)
	}
	y := make([]float64, p.PaddedDim())
	rotateInto(y, p.RotationSeed, x, clipFactor(x, p.Clip), p.Scale)
	v := ring.NewVector(p.Bits, len(y))
	if err := stochasticRound(rnd, y, p.InflatedClip(), v); err != nil {
		return ring.Vector{}, err
	}
	return v, nil
}

// Decode maps an aggregated ring vector back to model units: center the
// residues, unscale, inverse-rotate, truncate padding. The result is the
// SUM of the client updates (plus noise); the caller averages.
func Decode(p Params, agg ring.Vector) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if agg.Len() != p.PaddedDim() {
		return nil, fmt.Errorf("skellam: aggregate dim %d, want padded %d", agg.Len(), p.PaddedDim())
	}
	if agg.Bits != p.Bits {
		return nil, fmt.Errorf("skellam: aggregate bits %d, want %d", agg.Bits, p.Bits)
	}
	centered := agg.Centered()
	y := make([]float64, len(centered))
	inv := 1 / p.Scale
	for i, v := range centered {
		y[i] = float64(v) * inv
	}
	return Unrotate(p.RotationSeed, y, p.Dim), nil
}
