package main

import (
	"bytes"
	"crypto/sha256"
	"runtime/pprof"
	"testing"
	"time"
)

// The workloads at tiny sizes: the same rigs, oracle and exact counts as
// the benchmark, small enough for a unit test.

var (
	tinyCold = flatParams{n: 6, threshold: 4, tolerance: 2, dim: 256, bits: 20,
		targetVar: 100, stageDeadline: 10 * time.Second}
	tinyResumed = flatParams{n: 5, threshold: 3, tolerance: 1, dim: 256, bits: 20,
		targetVar: 100, resumed: true, stageDeadline: 10 * time.Second}
	tinySharded = shardedParams{shards: 2, perShard: 8, threshold: 6, tolerance: 2,
		chunks: 2, dim: 256, dropsPerShard: 1, bits: 20, targetMu: 100, scale: 4}
)

// rounds runs k checked rounds on r and returns their samples.
func rounds(t *testing.T, r rig, m *meter, k int) []sample {
	t.Helper()
	var out []sample
	for i := 0; i < k; i++ {
		s, err := oneRound(r, m)
		if err != nil {
			t.Fatalf("round %d: %v", i+1, err)
		}
		out = append(out, s)
	}
	return out
}

func TestFlatColdCounts(t *testing.T) {
	m := newMeter()
	r, err := newFlatRig(tinyCold, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	n := uint64(tinyCold.n)
	for _, s := range rounds(t, r, m, 2) {
		if want := 2 * n * (n - 1); s.agree != want {
			t.Fatalf("cold round made %d agreements, want 2·n·(n−1) = %d", s.agree, want)
		}
		// Masked upload: 8 bytes a coordinate, the 14-byte codec header
		// ([0xD0][tag][From:8][n:4]) and the 20-byte frame header.
		if got, want := s.up[tagMasked], n*uint64(8*tinyCold.dim+14+frameHeader); got != want {
			t.Fatalf("masked upload %d bytes for %d clients, want %d", got, n, want)
		}
		if up, _ := r.upDownBytes(float64(sum(s.up[:])), 0); up <= float64(8*tinyCold.dim) {
			t.Fatalf("client upload %v bytes is below the masked payload", up)
		}
	}
}

func sum(xs []uint64) (t uint64) {
	for _, x := range xs {
		t += x
	}
	return t
}

func TestFlatResumedCounts(t *testing.T) {
	m := newMeter()
	r, err := newFlatRig(tinyResumed, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	n := uint64(tinyResumed.n)
	for _, s := range rounds(t, r, m, 3) {
		if want := 4 * (n - 1); s.agree != want {
			t.Fatalf("resumed round with one churned client made %d agreements, want 4·(n−1) = %d", s.agree, want)
		}
		if !r.hs.Partial() || len(r.hs.Divergent) != 1 {
			t.Fatalf("handshake divergent %v, want one churned client", r.hs.Divergent)
		}
	}
	// The establishment round and three timed rounds chain; every client
	// not restarted since audited all four.
	full := 0
	for _, id := range r.ids {
		if len(r.auditors[id].History()) == 4 {
			full++
		}
	}
	if full < len(r.ids)-3 {
		t.Fatalf("%d clients audited the whole chain, want at least %d", full, len(r.ids)-3)
	}
}

func TestShardedCounts(t *testing.T) {
	m := newMeter()
	r, err := newShardedRig(tinySharded, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rounds(t, r, m, 2) {
		if s.agree != 0 {
			t.Fatalf("sharded round after set-up made %d agreements, want 0", s.agree)
		}
		if want := tinySharded.shards * (tinySharded.perShard - tinySharded.dropsPerShard); s.survivors != want {
			t.Fatalf("%d survivors, want %d", s.survivors, want)
		}
	}
}

// TestOracleRejects checks that the oracle fails rounds whose result is
// wrong: a corrupted coordinate, a survivor counted twice, a wrong
// agreement count.
func TestOracleRejects(t *testing.T) {
	m := newMeter()
	r, err := newFlatRig(tinyCold, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	rounds(t, r, m, 1)
	agree := 2 * uint64(tinyCold.n*(tinyCold.n-1))
	if err := r.check(agree); err != nil {
		t.Fatalf("clean round rejected: %v", err)
	}
	if err := r.check(agree + 1); err == nil {
		t.Fatal("oracle accepted a wrong agreement count")
	}
	for _, cr := range r.results {
		cr.Sum = r.res.Sum // corrupt the server's and every client's copy alike
	}
	r.res.Sum[3] += 5000
	if err := r.check(agree); err == nil {
		t.Fatal("oracle accepted a corrupted coordinate")
	}
	r.res.Sum[3] -= 5000
	for i := range r.res.Sum {
		r.res.Sum[i] += r.inputs[1].Data[i]
	}
	if err := r.check(agree); err == nil {
		t.Fatal("oracle accepted a survivor counted twice")
	}

	s, err := newShardedRig(tinySharded, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	rounds(t, s, m, 1)
	s.res.Sum[0] += 0.3
	if err := s.check(0); err == nil {
		t.Fatal("oracle accepted a sharded result off the grid")
	}
}

// TestTraceLayers runs traced rounds and checks the layer split the
// workloads are built around: handshake and transcript phases only on the
// resumed workload, exact per-stage bytes, and a CPU profile that decodes
// and attributes every sample.
func TestTraceLayers(t *testing.T) {
	for _, tc := range []struct {
		p       flatParams
		session bool
	}{{tinyCold, false}, {tinyResumed, true}} {
		m := newMeter()
		r, err := newFlatRig(tc.p, 3, m)
		if err != nil {
			t.Fatal(err)
		}
		m.tracing.Store(true)
		rounds(t, r, m, 2)
		m.tracing.Store(false)
		r.close()
		lm := layerMetrics(m.snapshot())
		for _, p := range []string{"handshake", "transcript"} {
			if got := lm["phase."+p+".client_s"] > 0; got != tc.session {
				t.Errorf("resumed=%v: phase.%s.client_s = %v", tc.session, p, lm["phase."+p+".client_s"])
			}
		}
		if lm["phase.masked.client_s"] <= 0 || lm["core.server_round_s"] <= 0 {
			t.Errorf("resumed=%v: no masked phase or server round in %v", tc.session, lm)
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	h := sha256.Sum256(nil)
	for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); {
		h = sha256.Sum256(h[:])
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Under the race detector many samples land in its runtime and count
	// as other; the loop must still be the largest attributed layer.
	for l, v := range shares {
		if l != "other" && l != "sha256" && v >= shares["sha256"] {
			t.Fatalf("a SHA-256 loop profiled as %v", shares)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/internal/fips140/edwards25519/field.feMul", "crypto/ecdh.x25519ScalarMult", "repro/internal/dh.(*KeyPair).Agree"}, "x25519"},
		{[]string{"crypto/internal/fips140/edwards25519/field.feMul", "crypto/internal/fips140/edwards25519.(*Point).Add", "repro/internal/sig.(*Signer).Sign"}, "ed25519"},
		{[]string{"crypto/internal/fips140/aes.ctrBlocks8Asm", "repro/internal/prg.(*Stream).Read"}, "aes_ctr"},
		{[]string{"crypto/internal/fips140/aes/gcm.gcmAesEnc", "repro/internal/aead.Seal"}, "aead"},
		{[]string{"repro/internal/field.Mul", "repro/internal/lightsecagg.encode"}, "field"},
		{[]string{"repro/internal/field.Mul", "repro/internal/shamir.Split"}, "shamir"},
		{[]string{"runtime.memmove", "repro/internal/core.encodeMaskedInput"}, "codec"},
		{[]string{"runtime.memmove", "repro/internal/ring.Vector.AddInPlace"}, "ring"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"repro/internal/rng.(*SkellamInv).Sample", "repro/internal/xnoise.TotalNoise"}, "skellam"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
