//go:build !race

package skellam

import (
	"testing"

	"repro/internal/prg"
)

// TestEncodeAllocs: the fused encode allocates its float64 scratch and the
// output ring vector, nothing else. (Excluded under -race, whose
// instrumentation changes what escapes.)
func TestEncodeAllocs(t *testing.T) {
	p := testParams(3000, 8)
	x := randomUpdate(prg.NewStream(prg.NewSeed([]byte("encode-allocs"))), p.Dim, 0.5)
	rnd := prg.NewStream(prg.NewSeed([]byte("encode-allocs-rounding")))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Encode(p, x, rnd); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Encode: %v allocations", allocs)
	if allocs > 2 {
		t.Fatalf("Encode makes %v allocations, want at most 2", allocs)
	}
}
