package main

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/core"
	"repro/internal/lightsecagg"
	"repro/internal/prg"
	"repro/internal/skellam"
)

// shardedParams sizes an in-process two-level round (core.RunShardedRound)
// on the LightSecAgg substrate.
type shardedParams struct {
	shards, perShard int
	// threshold is LightSecAgg's U per shard; T = D = perShard − threshold.
	threshold int
	// tolerance is the per-shard XNoise dropout tolerance.
	tolerance     int
	chunks, dim   int
	dropsPerShard int
	bits          uint
	// targetMu is the central XNoise target in grid units.
	targetMu float64
	// scale is the codec's model-units → grid scale.
	scale float64
}

// basisVectors is the number of shared grid vectors client updates are
// combined from (see shardedRig.prepare).
const basisVectors = 8

type shardedRig struct {
	p     shardedParams
	m     *meter
	ids   []uint64
	plan  *core.ShardPlan
	pools []*core.SessionPool
	codec skellam.Params
	rng   *rand.Rand
	seed  uint64
	round uint64

	// basis[j] = Unrotate(grid[j] / scale): updates built as integer
	// combinations of the basis encode to exact grid vectors, so the
	// codec's stochastic rounding adds nothing and the residual of a round
	// is exactly its noise.
	basis   [basisVectors][]float64
	coef    map[uint64][basisVectors]int
	updates map[uint64][]float64
	drops   []uint64
	res     *core.ShardedRoundResult
}

func newShardedRig(p shardedParams, seed uint64, m *meter) (*shardedRig, error) {
	n := p.shards * p.perShard
	r := &shardedRig{
		p: p, m: m, seed: seed,
		rng:     rand.New(rand.NewPCG(seed, 0x7368617264)),
		coef:    make(map[uint64][basisVectors]int, n),
		updates: make(map[uint64][]float64, n),
	}
	for id := uint64(1); id <= uint64(n); id++ {
		r.ids = append(r.ids, id)
		r.updates[id] = make([]float64, p.dim)
	}
	var err error
	if r.plan, err = core.NewShardPlan(r.ids, p.shards); err != nil {
		return nil, err
	}
	for s := 0; s < p.shards; s++ {
		r.pools = append(r.pools, core.NewSessionPool(keyRoundsForever))
	}
	r.codec = skellam.Params{Dim: p.dim, Bits: p.bits, Clip: 1e9, Scale: p.scale,
		Beta: math.Exp(-0.5), K: 3, NumClients: n,
		RotationSeed: prg.NewSeed(seedBytes(seed), []byte("rotation"))}
	grid := make([]float64, p.dim)
	for j := range r.basis {
		for i := range grid {
			grid[i] = float64(r.rng.IntN(9)-4) / p.scale
		}
		r.basis[j] = skellam.Unrotate(r.codec.RotationSeed, grid, p.dim)
	}
	// Session establishment: the first round over fresh pools runs every
	// shard's key agreement.
	if err := r.prepare(); err != nil {
		return nil, err
	}
	if err := r.run(context.Background()); err != nil {
		return nil, fmt.Errorf("establishment round: %w", err)
	}
	return r, nil
}

func seedBytes(seed uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, seed)
}

// prepare draws the round's updates and drops: every client's update is a
// small integer combination of the basis, and dropsPerShard seeded
// clients per shard vanish before the masked upload.
func (r *shardedRig) prepare() error {
	for _, id := range r.ids {
		var c [basisVectors]int
		for j := range c {
			c[j] = r.rng.IntN(5) - 2
		}
		r.coef[id] = c
		u := r.updates[id]
		clear(u)
		for j, cj := range c {
			if cj == 0 {
				continue
			}
			f := float64(cj)
			for i, b := range r.basis[j] {
				u[i] += f * b
			}
		}
	}
	r.drops = r.drops[:0]
	for _, roster := range r.plan.Rosters {
		perm := r.rng.Perm(len(roster))
		for _, k := range perm[:r.p.dropsPerShard] {
			r.drops = append(r.drops, roster[k])
		}
	}
	sort.Slice(r.drops, func(i, j int) bool { return r.drops[i] < r.drops[j] })
	return nil
}

func (r *shardedRig) run(context.Context) error {
	r.round++
	cfg := core.ShardedRoundConfig{
		RoundConfig: core.RoundConfig{
			Round: r.round, Protocol: core.ProtocolLightSecAgg, Codec: r.codec,
			Threshold: r.p.threshold, Chunks: r.p.chunks,
			Tolerance: r.p.tolerance, TargetMu: r.p.targetMu,
			Seed: prg.NewSeed(seedBytes(r.seed), binary.LittleEndian.AppendUint64(nil, r.round)),
		},
		Shards:        r.p.shards,
		ShardSessions: r.pools,
	}
	sp := r.m.begin("core.sharded_round", r.m.roundSpan.Load(), 0)
	res, err := core.RunShardedRound(cfg, r.updates, r.drops, crand.Reader)
	r.m.end(sp)
	r.res = res
	return err
}

func (r *shardedRig) survivors() int { return len(r.ids) - len(r.drops) }

// check is the round oracle: no shard missing, survivors exactly the
// roster minus the scheduled drops, the residual (result minus the
// survivors' updates, rotated back onto the grid) integral — masks cancel
// exactly — with the central XNoise target's statistics, and no X25519
// agreement after set-up.
func (r *shardedRig) check(agreements uint64) error {
	res := r.res
	if res == nil || res.Report == nil {
		return fmt.Errorf("no round result")
	}
	if res.Report.Degraded || len(res.ShardErrs) > 0 {
		return fmt.Errorf("degraded round: missing shards %v, errors %v", res.Report.Missing, res.ShardErrs)
	}
	dropped := make(map[uint64]bool, len(r.drops))
	for _, id := range r.drops {
		dropped[id] = true
	}
	var want []uint64
	for _, id := range r.ids {
		if !dropped[id] {
			want = append(want, id)
		}
	}
	if !sameIDs(sorted(res.Report.Survivors), want) || !sameIDs(sorted(res.Report.Dropped), r.drops) {
		return fmt.Errorf("survivors %v / dropped %v, want the roster minus %v",
			res.Report.Survivors, res.Report.Dropped, r.drops)
	}
	var total [basisVectors]float64
	for _, id := range want {
		for j, c := range r.coef[id] {
			total[j] += float64(c)
		}
	}
	resid := make([]float64, r.p.dim)
	copy(resid, res.Sum)
	for j, t := range total {
		for i, b := range r.basis[j] {
			resid[i] -= t * b
		}
	}
	grid := skellam.Rotate(r.codec.RotationSeed, resid)
	for i := range grid {
		g := grid[i] * r.p.scale
		if math.Abs(g-math.Round(g)) > 1e-3 {
			return fmt.Errorf("residual off the integer grid at %d (%v): masks did not cancel", i, g)
		}
		grid[i] = math.Round(g)
	}
	if err := checkNoise(grid, r.p.targetMu); err != nil {
		return err
	}
	if agreements != 0 {
		return fmt.Errorf("%d X25519 agreements after set-up, want 0", agreements)
	}
	return nil
}

// upDownBytes has nothing to measure — the in-process round uses no
// transport — so it returns the program's own per-client traffic model
// (lightsecagg.ClientCost) for the round's per-chunk LightSecAgg
// instances: upload is the coded shares, the masked chunk and the
// aggregate share; download is the coded shares of every peer.
func (r *shardedRig) upDownBytes(float64, float64) (float64, float64) {
	ids := r.plan.Rosters[0]
	var up, down float64
	for c := 0; c < r.p.chunks; c++ {
		cfg := lightsecagg.Config{ClientIDs: ids, PrivacyT: len(ids) - r.p.threshold,
			Dropout: len(ids) - r.p.threshold, Dim: r.p.dim / r.p.chunks}
		cost, err := lightsecagg.ClientCost(cfg, 8)
		if err != nil {
			return math.NaN(), math.NaN()
		}
		up += cost.Total()
		down += cost.OfflineShareBytes
	}
	return up, down
}

func (r *shardedRig) close() {}

func sorted(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
