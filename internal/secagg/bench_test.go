package secagg

import (
	"crypto/rand"
	"fmt"
	"testing"

	"repro/internal/ring"
	"repro/internal/xnoise"
)

// benchRound runs one full aggregation round for n clients at the given
// dimension, with or without XNoise.
func benchRound(b *testing.B, n, dim int, withXNoise bool, dropped int) {
	b.Helper()
	var plan *xnoise.Plan
	tol := n / 4
	if withXNoise {
		plan = &xnoise.Plan{
			NumClients: n, DropoutTolerance: tol,
			Threshold: n - tol, TargetVariance: 100,
		}
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	cfg := Config{
		Round: 1, ClientIDs: ids, Threshold: n - tol, Bits: 20, Dim: dim,
		XNoise: plan,
	}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		inputs[id] = ring.NewVector(20, dim)
	}
	drops := DropSchedule{}
	for i := 0; i < dropped; i++ {
		drops[ids[i]] = StageMaskedInput
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, inputs, nil, drops, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundPlain8x4096(b *testing.B)   { benchRound(b, 8, 4096, false, 0) }
func BenchmarkRoundPlain16x4096(b *testing.B)  { benchRound(b, 16, 4096, false, 0) }
func BenchmarkRoundXNoise8x4096(b *testing.B)  { benchRound(b, 8, 4096, true, 0) }
func BenchmarkRoundXNoise16x4096(b *testing.B) { benchRound(b, 16, 4096, true, 0) }
func BenchmarkRoundXNoiseDropout16x4096(b *testing.B) {
	benchRound(b, 16, 4096, true, 3)
}

// BenchmarkRoundScaling reports how the full-round cost scales with client
// count — the O(n²) pairwise-mask behavior motivating SecAgg+ (§2.3.2).
func BenchmarkRoundScaling(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRound(b, n, 1024, false, 0)
		})
	}
}

// BenchmarkRound64QuickScale is the end-to-end 64-client round at the
// QuickScale dimension with XNoise and dropout — the hot path the paper's
// Fig. 2 shows dominating round time.
func BenchmarkRound64QuickScale(b *testing.B) { benchRound(b, 64, 4096, true, 8) }

// BenchmarkRound64LargeModel is the same round at a large-model dimension
// (65536 ≈ the paper's CNN update scale after chunking), where per-element
// compute dominates the fixed per-pair key-agreement cost.
func BenchmarkRound64LargeModel(b *testing.B) { benchRound(b, 64, 65536, true, 8) }

// benchMaskedStageTail measures the masked-input stage-close tail: the
// server-side latency between the last masked input becoming available
// and U3 being sealed. Streamed (engine path): arrivals already folded
// into the partial aggregate, the tail is one AddMasked plus an O(1)
// merge of ≤ maskedFoldBatch pending vectors. Barriered (pre-engine
// path): the tail is all n vector adds at once. The wire driver adds one
// binary payload decode per message on top of each shape (see the codec
// benches); total CPU is identical — the streamed shape just hides it
// under collection, which is the §4.1 pipelining claim.
func benchMaskedStageTail(b *testing.B, dim int, streamed bool) {
	const n = 64
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	cfg := Config{Round: 1, ClientIDs: ids, Threshold: 48, Bits: 20, Dim: dim}
	msgs := make([]MaskedInputMsg, n)
	for i := range msgs {
		y := make([]uint64, dim)
		for j := range y {
			y[j] = uint64(i*j) & ((1 << 20) - 1)
		}
		msgs[i] = MaskedInputMsg{From: ids[i], Y: y}
	}
	mkServer := func() *Server {
		s, err := NewServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// White-box: place the server just past SealShares with all
		// clients in U2, as the round engine would have.
		s.u2 = ids
		s.u2set = toSet(ids)
		return s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := mkServer()
		if streamed {
			for _, m := range msgs[:n-1] {
				if err := s.AddMasked(m); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		if streamed {
			if err := s.AddMasked(msgs[n-1]); err != nil {
				b.Fatal(err)
			}
			if _, err := s.SealMasked(); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := sealAll(msgs, s.AddMasked, s.SealMasked); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMaskedStageTail64Streamed4096(b *testing.B)   { benchMaskedStageTail(b, 4096, true) }
func BenchmarkMaskedStageTail64Barriered4096(b *testing.B)  { benchMaskedStageTail(b, 4096, false) }
func BenchmarkMaskedStageTail64Streamed65536(b *testing.B)  { benchMaskedStageTail(b, 65536, true) }
func BenchmarkMaskedStageTail64Barriered65536(b *testing.B) { benchMaskedStageTail(b, 65536, false) }
