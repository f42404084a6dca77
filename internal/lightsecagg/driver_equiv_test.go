package lightsecagg

import (
	"crypto/rand"
	"testing"
	"time"

	"repro/internal/field"
)

// TestLSAInProcWireEquivalence runs the same inputs and drop schedule
// through the in-process driver (RunWithSessions) and the wire driver
// (RunWireServer and one RunWireClient per client over the memory
// transport). Both must aggregate the same clients to the same sum.
// Coordinate 0 of client id's input is 1<<id, so the sum alone also names
// the aggregated set.
func TestLSAInProcWireEquivalence(t *testing.T) {
	cfg := testConfig(6, 1, 2, 16) // U = 4
	inputs := make(map[uint64][]field.Element, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		v := make([]field.Element, cfg.Dim)
		v[0] = field.New(1 << id)
		for j := 1; j < cfg.Dim; j++ {
			v[j] = Lift(int64(id)*100 + int64(j) - 50)
		}
		inputs[id] = v
	}

	cases := []struct {
		name  string
		drops DropSchedule
		want  []uint64 // aggregated clients
	}{
		{"no-drops", nil, cfg.ClientIDs},
		{"drop-before-masked-upload", DropSchedule{2: StageMaskedInput}, []uint64{1, 3, 4, 5, 6}},
		{"drop-before-agg-share", DropSchedule{4: StageAggShare}, cfg.ClientIDs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inproc, err := RunWithSessions(cfg, inputs, tc.drops, rand.Reader, nil)
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			wire, err := runWireRoundDeadline(t, cfg, inputs, tc.drops, time.Second)
			if err != nil {
				t.Fatalf("wire: %v", err)
			}
			want := make([]field.Element, cfg.Dim)
			for _, id := range tc.want {
				for j, v := range inputs[id] {
					want[j] = field.Add(want[j], v)
				}
			}
			for j := range want {
				if inproc[j] != wire[j] {
					t.Fatalf("coord %d: in-process %d, wire %d", j, inproc[j].Uint64(), wire[j].Uint64())
				}
				if wire[j] != want[j] {
					t.Fatalf("coord %d: got %d, want %d", j, wire[j].Uint64(), want[j].Uint64())
				}
			}
		})
	}
}
