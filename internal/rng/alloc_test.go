//go:build !race

package rng

import (
	"fmt"
	"testing"
)

// TestSkellamVectorAllocs: a vector fill allocates nothing beyond the
// stream it is handed — the uniform batch lives on the fill's stack and
// the inversion table is cached. (Excluded under -race, whose
// instrumentation changes what escapes.)
func TestSkellamVectorAllocs(t *testing.T) {
	out := make([]int64, 4096)
	for _, tc := range []struct {
		name string
		fill func(mu float64)
	}{
		{"epoch0", func(mu float64) { SkellamVector(stream("alloc-e0"), mu, out) }},
		{"epoch1", func(mu float64) { SkellamVectorInv(stream("alloc-e1"), mu, out) }},
	} {
		for _, mu := range []float64{100.0 / 992, 3.125, 16, 80} {
			t.Run(fmt.Sprintf("%s/mu=%v", tc.name, mu), func(t *testing.T) {
				streamAllocs := testing.AllocsPerRun(20, func() { stream("alloc-stream") })
				allocs := testing.AllocsPerRun(20, func() { tc.fill(mu) })
				t.Logf("fill %v allocations, stream %v", allocs, streamAllocs)
				if allocs > streamAllocs {
					t.Fatalf("fill of %d allocates %v objects, its stream %v", len(out), allocs, streamAllocs)
				}
			})
		}
	}
}
