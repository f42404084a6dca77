package core

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// Wire-round benchmark: the same 64-client round over the in-memory
// transport, driven either by the streaming engine (RunWireServer) or by
// the barriered reference driver below, which reproduces the pre-engine
// collection shape — buffer a whole stage's frames, then decode them all,
// then feed the whole batch to the stage's Add* calls and seal it — so the overlap win stays measurable
// in one run on any machine (the convention BENCH_SECAGG_HOTPATH.json
// documents).

// sealAll runs one server stage as a batch: it feeds every message to
// the stage's incremental add, then seals the stage.
func sealAll[M, R any](msgs []M, add func(M) error, seal func() (R, error)) (R, error) {
	for _, m := range msgs {
		if err := add(m); err != nil {
			var zero R
			return zero, err
		}
	}
	return seal()
}

// runBarrieredWireServer is the barriered reference: stage frames are
// fully collected before the first decode, and the masked-input stage
// pays n decodes plus n vector adds after collection instead of hiding
// them under it.
func runBarrieredWireServer(ctx context.Context, cfg WireServerConfig, conn transport.ServerConn) (*secagg.Result, error) {
	server, err := secagg.NewServer(cfg.SecAgg)
	if err != nil {
		return nil, err
	}
	collect := func(stage int, expect []uint64) map[uint64][]byte {
		want := make(map[uint64]bool, len(expect))
		for _, id := range expect {
			want[id] = true
		}
		out := make(map[uint64][]byte)
		cctx, cancel := context.WithTimeout(ctx, cfg.StageDeadline)
		defer cancel()
		for len(out) < len(expect) {
			f, err := conn.Recv(cctx)
			if err != nil {
				break
			}
			if f.Stage != stage || !want[f.From] {
				continue
			}
			if _, dup := out[f.From]; dup {
				continue
			}
			out[f.From] = f.Payload
		}
		return out
	}

	var adverts []secagg.AdvertiseMsg
	for _, p := range collect(wireAdvertise, cfg.SecAgg.ClientIDs) {
		var m secagg.AdvertiseMsg
		if err := decodePayload(p, &m); err != nil {
			return nil, err
		}
		adverts = append(adverts, m)
	}
	roster, err := sealAll(adverts, server.AddAdvertise, server.SealAdvertise)
	if err != nil {
		return nil, err
	}
	rosterPayload, err := encodePayload(roster)
	if err != nil {
		return nil, err
	}
	u1 := make([]uint64, 0, len(roster))
	for _, m := range roster {
		u1 = append(u1, m.From)
	}
	broadcast(conn, u1, wireRoster, rosterPayload)

	perSender := make(map[uint64][]secagg.EncryptedShareMsg)
	for id, p := range collect(wireShares, u1) {
		cts, err := decodeShareMsgs(p)
		if err != nil {
			return nil, err
		}
		perSender[id] = cts
	}
	for id, cts := range perSender {
		if err := server.AddShare(id, cts); err != nil {
			return nil, err
		}
	}
	deliveries, err := server.SealShares()
	if err != nil {
		return nil, err
	}
	u2 := make([]uint64, 0, len(deliveries))
	for id, cts := range deliveries {
		payload, err := encodeShareMsgs(cts)
		if err != nil {
			return nil, err
		}
		_ = conn.SendTo(id, transport.Frame{Stage: wireDeliver, Payload: payload})
		u2 = append(u2, id)
	}

	var maskedMsgs []secagg.MaskedInputMsg
	for _, p := range collect(wireMasked, u2) {
		m, err := decodeMaskedInput(p)
		if err != nil {
			return nil, err
		}
		maskedMsgs = append(maskedMsgs, m)
	}
	u3, err := sealAll(maskedMsgs, server.AddMasked, server.SealMasked)
	if err != nil {
		return nil, err
	}
	u3Payload, err := encodePayload(u3)
	if err != nil {
		return nil, err
	}
	broadcast(conn, u3, wireConsistencyReq, u3Payload)

	var consMsgs []secagg.ConsistencyMsg
	for _, p := range collect(wireConsistency, u3) {
		var m secagg.ConsistencyMsg
		if err := decodePayload(p, &m); err != nil {
			return nil, err
		}
		consMsgs = append(consMsgs, m)
	}
	unmaskReq, err := sealAll(consMsgs, server.AddConsistency, server.SealConsistency)
	if err != nil {
		return nil, err
	}
	reqPayload, err := encodePayload(unmaskReq)
	if err != nil {
		return nil, err
	}
	broadcast(conn, unmaskReq.U4, wireUnmaskReq, reqPayload)

	var unmaskMsgs []secagg.UnmaskMsg
	for _, p := range collect(wireUnmask, unmaskReq.U4) {
		m, err := decodeUnmask(p)
		if err != nil {
			return nil, err
		}
		unmaskMsgs = append(unmaskMsgs, m)
	}
	noiseReq, err := sealAll(unmaskMsgs, server.AddUnmask, server.SealUnmask)
	if err != nil {
		return nil, err
	}
	if noiseReq != nil {
		nrPayload, err := encodePayload(*noiseReq)
		if err != nil {
			return nil, err
		}
		broadcast(conn, noiseReq.U5, wireNoiseReq, nrPayload)
		var noiseMsgs []secagg.NoiseShareMsg
		for _, p := range collect(wireNoise, noiseReq.U5) {
			var m secagg.NoiseShareMsg
			if err := decodePayload(p, &m); err != nil {
				return nil, err
			}
			noiseMsgs = append(noiseMsgs, m)
		}
		for _, m := range noiseMsgs {
			if err := server.AddNoiseShare(m); err != nil {
				return nil, err
			}
		}
		if err := server.SealNoiseShares(); err != nil {
			return nil, err
		}
	}

	res, err := server.Finalize()
	if err != nil {
		return nil, err
	}
	resPayload, err := encodeResult(res)
	if err != nil {
		return nil, err
	}
	broadcast(conn, res.Survivors, wireResult, resPayload)
	return &res, nil
}

func benchWireRound64(b *testing.B, dim int, overlapped bool) {
	const n = 64
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	tol := n / 4
	plan := &xnoise.Plan{
		NumClients: n, DropoutTolerance: tol, Threshold: n - tol, TargetVariance: 100,
	}
	saCfg := secagg.Config{
		Round: 1, ClientIDs: ids, Threshold: n - tol, Bits: 20, Dim: dim, XNoise: plan,
	}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		inputs[id] = ring.NewVector(20, dim)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := transport.NewMemoryNetwork(256)
		conns := make(map[uint64]transport.ClientConn, n)
		for _, id := range ids {
			c, err := net.Connect(id)
			if err != nil {
				b.Fatal(err)
			}
			conns[id] = c
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		var wg sync.WaitGroup
		for _, id := range ids {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := WireClientConfig{
					SecAgg: saCfg, ID: id, Input: inputs[id],
					DropBefore: NoDrop, Rand: rand.Reader,
				}
				_, _ = RunWireClient(ctx, cfg, conns[id])
			}()
		}
		srvCfg := WireServerConfig{SecAgg: saCfg, StageDeadline: time.Minute}
		var err error
		if overlapped {
			_, err = RunWireServer(ctx, srvCfg, net.Server())
		} else {
			_, err = runBarrieredWireServer(ctx, srvCfg, net.Server())
		}
		cancel()
		wg.Wait()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRound64 is the acceptance benchmark: a full 64-client
// XNoise wire round at the QuickScale dimension, masked-input collection
// overlapped (engine) vs. barriered (reference).
func BenchmarkWireRound64(b *testing.B) {
	for _, dim := range []int{4096, 16384} {
		for _, mode := range []string{"overlapped", "barriered"} {
			b.Run(fmt.Sprintf("dim=%d/%s", dim, mode), func(b *testing.B) {
				benchWireRound64(b, dim, mode == "overlapped")
			})
		}
	}
}
