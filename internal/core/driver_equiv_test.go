package core

import (
	"context"
	"crypto/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/transport"
)

// TestSecAggInProcWireEquivalence runs the same inputs and drop schedule
// through the in-process driver (secagg.Run) and the wire driver
// (RunWireServer and one RunWireClient per client over the memory
// transport). Both must aggregate the same clients to the same sum.
// Coordinate 0 of client id's input is 1<<id, so the sum alone also names
// the aggregated set.
func TestSecAggInProcWireEquivalence(t *testing.T) {
	const n, threshold, dim = 6, 3, 16
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	cfg := secagg.Config{Round: 1, ClientIDs: ids, Threshold: threshold, Bits: 20, Dim: dim}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		v := ring.NewVector(20, dim)
		v.Data[0] = 1 << id
		for j := 1; j < dim; j++ {
			v.Data[j] = id*100 + uint64(j)
		}
		inputs[id] = v
	}

	cases := []struct {
		name  string
		drops secagg.DropSchedule
		want  []uint64 // aggregated clients
	}{
		{"no-drops", nil, ids},
		{"drop-before-masked-upload", secagg.DropSchedule{2: secagg.StageMaskedInput}, []uint64{1, 3, 4, 5, 6}},
		{"drop-before-unmask", secagg.DropSchedule{4: secagg.StageUnmasking}, ids},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inproc, err := secagg.Run(cfg, inputs, nil, tc.drops, rand.Reader)
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			wire := runSecAggWireRound(t, cfg, inputs, tc.drops)

			if !reflect.DeepEqual(inproc.Result.Survivors, tc.want) {
				t.Fatalf("in-process aggregated %v, want %v", inproc.Result.Survivors, tc.want)
			}
			if !reflect.DeepEqual(wire.Survivors, tc.want) {
				t.Fatalf("wire aggregated %v, want %v", wire.Survivors, tc.want)
			}
			if !reflect.DeepEqual(inproc.Result.Sum, wire.Sum) {
				t.Fatalf("sums differ:\n in-process %v\n wire       %v", inproc.Result.Sum, wire.Sum)
			}
			want := ring.NewVector(20, dim)
			for _, id := range tc.want {
				if err := want.AddInPlace(inputs[id]); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(wire.Sum, want.Data) {
				t.Fatalf("sum %v, want %v", wire.Sum, want.Data)
			}
		})
	}
}

// runSecAggWireRound runs one wire round over the memory transport, each
// scheduled drop becoming that client's DropBefore.
func runSecAggWireRound(t *testing.T, cfg secagg.Config, inputs map[uint64]ring.Vector,
	drops secagg.DropSchedule) *secagg.Result {
	t.Helper()
	net := transport.NewMemoryNetwork(256)
	conns := make(map[uint64]transport.ClientConn, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		c, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		conns[id] = c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for _, id := range cfg.ClientIDs {
		id := id
		drop, dropped := drops[id]
		if !dropped {
			drop = NoDrop
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := RunWireClient(ctx, WireClientConfig{
				SecAgg: cfg, ID: id, Input: inputs[id], DropBefore: drop, Rand: rand.Reader,
			}, conns[id])
			if err != nil && !dropped {
				t.Errorf("client %d: %v", id, err)
			}
		}()
	}
	res, err := RunWireServer(ctx, WireServerConfig{SecAgg: cfg, StageDeadline: time.Second}, net.Server())
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatalf("wire: %v", err)
	}
	wg.Wait()
	return res
}
