package core

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/prg"
	"repro/internal/secagg"
)

// TestGoldenRoundSum pins the decoded aggregate of a chunked XNoise round
// with dropouts, bit for bit, on both substrate families and both noise
// epochs. Masks cancel exactly and every other input (codec rounding,
// noise seeds) derives from the round seed, so the sum is a deterministic
// function of the config even under crypto/rand; the digest covers the
// DSkellam encode, the per-chunk noise addition, the field lift, the
// noise removal and the decode.
func TestGoldenRoundSum(t *testing.T) {
	const n, dim = 6, 3000
	updates := randomUpdates(n, dim, 0.7)
	for _, tc := range []struct {
		name  string
		proto Protocol
		epoch uint64
		want  string
	}{
		{"lightsecagg/epoch0", ProtocolLightSecAgg, 0, "37beb3d80d797672f9ee02144d560a33efaf21eb9e2cc5e41a120e18e62e4fe4"},
		{"lightsecagg/epoch1", ProtocolLightSecAgg, 1, "5d3e7911b7af8961e4bdf9bff4a88b02fd869696a66c9e32440f3b10788b9e39"},
		{"secagg/epoch0", ProtocolSecAgg, 0, "37beb3d80d797672f9ee02144d560a33efaf21eb9e2cc5e41a120e18e62e4fe4"},
	} {
		res, err := RunRound(RoundConfig{
			Round: 44, Protocol: tc.proto, Codec: testCodec(dim, n),
			Threshold: 4, Chunks: 3, Tolerance: 2, TargetMu: 40, NoiseEpoch: tc.epoch,
			Seed:         prg.NewSeed([]byte("golden-round-sum")),
			DropSchedule: secagg.DropSchedule{6: secagg.StageUnmasking},
		}, updates, []uint64{3}, rand.Reader)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b := make([]byte, 0, 8*len(res.Sum))
		for _, v := range res.Sum {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		h := sha256.Sum256(b)
		if got := hex.EncodeToString(h[:]); got != tc.want {
			t.Errorf("%s: round sum digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
