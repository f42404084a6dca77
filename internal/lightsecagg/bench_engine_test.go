package lightsecagg

import (
	"context"
	"crypto/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/transport"
)

// Masked-stage close-tail benchmark, mirroring secagg's
// BenchmarkMaskedStageTail64*: the server-side latency between the last
// masked input becoming available and the surviving set being sealed.
// Streamed (engine path): every arrival already folded into the running
// aggregate, the tail is one AddMasked (one dim-length fold) plus an O(1)
// threshold check and survivor sort. Barriered (the pre-engine shape this
// package used to have): all n dim-length vector adds happen at the
// close. Total CPU is identical — the streamed shape hides it under
// collection time, which is the §4.1 pipelining claim.

// barrieredMaskedClose reproduces the historical close: masked inputs
// were stored on arrival and summed only when the recovery step ran.
type barrieredMaskedClose struct {
	cfg    Config
	masked map[uint64][]field.Element
}

func (s *barrieredMaskedClose) close() ([]uint64, []field.Element) {
	survivors := make([]uint64, 0, len(s.masked))
	for id := range s.masked {
		survivors = append(survivors, id)
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })
	sum := make([]field.Element, s.cfg.Dim)
	for _, id := range survivors {
		y := s.masked[id]
		for i := range sum {
			sum[i] = field.Add(sum[i], y[i])
		}
	}
	return survivors, sum
}

func benchLSAMaskedStageTail(b *testing.B, dim int, streamed bool) {
	const n = 64
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	cfg := Config{ClientIDs: ids, PrivacyT: 16, Dropout: 16, Dim: dim}
	msgs := make([]MaskedMsg, n)
	for i := range msgs {
		y := make([]field.Element, dim)
		for j := range y {
			y[j] = field.New(uint64(i*j + 1))
		}
		msgs[i] = MaskedMsg{From: ids[i], Y: y}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if streamed {
			s, err := NewServer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range msgs[:n-1] {
				if err := s.AddMasked(m); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if err := s.AddMasked(msgs[n-1]); err != nil {
				b.Fatal(err)
			}
			if _, err := s.SealMasked(); err != nil {
				b.Fatal(err)
			}
		} else {
			ref := &barrieredMaskedClose{cfg: cfg, masked: make(map[uint64][]field.Element, n)}
			for _, m := range msgs[:n-1] {
				ref.masked[m.From] = m.Y
			}
			b.StartTimer()
			ref.masked[msgs[n-1].From] = msgs[n-1].Y
			if surv, _ := ref.close(); len(surv) != n {
				b.Fatal("barriered close lost survivors")
			}
		}
	}
}

func BenchmarkLSAMaskedStageTail64Streamed4096(b *testing.B) { benchLSAMaskedStageTail(b, 4096, true) }
func BenchmarkLSAMaskedStageTail64Barriered4096(b *testing.B) {
	benchLSAMaskedStageTail(b, 4096, false)
}
func BenchmarkLSAMaskedStageTail64Streamed65536(b *testing.B) {
	benchLSAMaskedStageTail(b, 65536, true)
}
func BenchmarkLSAMaskedStageTail64Barriered65536(b *testing.B) {
	benchLSAMaskedStageTail(b, 65536, false)
}

// BenchmarkLSAWireRoundEngine64: one full 64-client LightSecAgg wire
// round over the in-memory transport through the engine-backed drivers
// (clients as goroutines + RunWireServer) — the whole-round number the
// engine port is judged by. T = D = 16 (U = 48), the symmetric
// instantiation core.RunRound uses at threshold 48.
func BenchmarkLSAWireRoundEngine64(b *testing.B) {
	const n, dim = 64, 4096
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	cfg := Config{ClientIDs: ids, PrivacyT: 16, Dropout: 16, Dim: dim}
	inputs := make(map[uint64][]field.Element, n)
	for _, id := range ids {
		v := make([]field.Element, dim)
		for i := range v {
			v[i] = Lift(int64(id) + int64(i%7) - 3)
		}
		inputs[id] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := transport.NewMemoryNetwork(1024)
		conns := make(map[uint64]transport.ClientConn, n)
		for _, id := range ids {
			c, err := net.Connect(id)
			if err != nil {
				b.Fatal(err)
			}
			conns[id] = c
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		var wg sync.WaitGroup
		for _, id := range ids {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = RunWireClient(ctx, WireClientConfig{
					Config: cfg, ID: id, Input: inputs[id], DropBefore: NoDrop, Rand: rand.Reader,
				}, conns[id])
			}()
		}
		if _, err := RunWireServer(ctx, WireServerConfig{
			Config: cfg, StageDeadline: 60 * time.Second,
		}, net.Server()); err != nil {
			b.Fatal(err)
		}
		cancel()
		wg.Wait()
	}
}
