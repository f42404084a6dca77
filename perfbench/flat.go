package main

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/sig"
	"repro/internal/transcript"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// flatParams sizes a single-aggregator wire round over the memory
// transport (core.RunWireServer plus one core.RunWireClient per client).
type flatParams struct {
	n, threshold, tolerance, dim int
	bits                         uint
	targetVar                    float64
	// resumed puts every round behind the signed handshake on one shared
	// engine, resumes sessions across rounds, turns transcripts on, and
	// restarts one seeded client with a fresh session before each round.
	resumed bool
	// stageDeadline is generous: a fault-free round must never seal a
	// stage on it (the oracle fails a round that loses a client).
	stageDeadline time.Duration
}

// flatRig holds one flat deployment between rounds.
type flatRig struct {
	p    flatParams
	m    *meter
	ids  []uint64
	plan xnoise.Plan
	rng  *rand.Rand

	net   *transport.MemoryNetwork
	srv   *serverConn
	conns map[uint64]*clientConn
	// inputs are overwritten by prepare; the clients clone them.
	inputs map[uint64]ring.Vector
	round  uint64

	// Session layer, handshake and transcripts (resumed only).
	ctx        context.Context
	cancel     context.CancelFunc
	eng        *engine.Engine
	signer     *sig.Signer
	serverSess *secagg.ServerSession
	recorder   *transcript.Recorder
	clientSess map[uint64]*secagg.Session
	auditors   map[uint64]*transcript.Auditor
	churned    []uint64

	// Outcome of the last round, for the oracle.
	hs      core.Handshake
	res     *secagg.Result
	results map[uint64]*secagg.Result
}

func newFlatRig(p flatParams, seed uint64, m *meter) (*flatRig, error) {
	r := &flatRig{
		p: p, m: m,
		plan: xnoise.Plan{NumClients: p.n, DropoutTolerance: p.tolerance,
			Threshold: p.threshold, TargetVariance: p.targetVar},
		rng:     rand.New(rand.NewPCG(seed, 0x666c6174)),
		net:     transport.NewMemoryNetwork(0),
		conns:   make(map[uint64]*clientConn, p.n),
		inputs:  make(map[uint64]ring.Vector, p.n),
		results: make(map[uint64]*secagg.Result, p.n),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.srv = m.wrapServer(r.net.Server())
	for id := uint64(1); id <= uint64(p.n); id++ {
		r.ids = append(r.ids, id)
		r.inputs[id] = ring.NewVector(p.bits, p.dim)
		if err := r.connect(id); err != nil {
			r.close()
			return nil, err
		}
	}
	if p.resumed {
		var err error
		if r.signer, err = sig.NewSigner(crand.Reader); err != nil {
			r.close()
			return nil, err
		}
		r.eng = engine.New(engine.TransportSource(r.ctx, r.srv))
		r.serverSess = secagg.NewServerSession()
		r.recorder = transcript.NewRecorder(r.signer)
		r.clientSess = make(map[uint64]*secagg.Session, p.n)
		r.auditors = make(map[uint64]*transcript.Auditor, p.n)
		for _, id := range r.ids {
			if err := r.freshSession(id); err != nil {
				r.close()
				return nil, err
			}
		}
		// Session establishment: the first handshake has no state to
		// resume, so it commits a full re-key.
		r.prepareInputs()
		if err := r.run(r.ctx); err != nil {
			r.close()
			return nil, fmt.Errorf("establishment round: %w", err)
		}
		if r.hs.Resume {
			r.close()
			return nil, fmt.Errorf("establishment round resumed with no prior state")
		}
	}
	return r, nil
}

func (r *flatRig) connect(id uint64) error {
	c, err := r.net.Connect(id)
	if err != nil {
		return err
	}
	r.conns[id] = r.m.wrapClient(c, id)
	return nil
}

func (r *flatRig) freshSession(id uint64) error {
	sess, err := secagg.NewSession(crand.Reader)
	if err != nil {
		return err
	}
	r.clientSess[id] = sess
	r.auditors[id] = transcript.NewAuditor(r.signer.Public())
	return nil
}

func (r *flatRig) prepareInputs() {
	mask := uint64(1)<<r.p.bits - 1
	for _, id := range r.ids {
		in := r.inputs[id]
		for i := range in.Data {
			in.Data[i] = r.rng.Uint64() & mask
		}
	}
}

// prepare draws the round's inputs and, on the resumed workload, restarts
// one seeded client: its connection closes, it re-dials, and its session
// and audit history start empty, so the handshake re-keys exactly its
// edges.
func (r *flatRig) prepare() error {
	r.prepareInputs()
	if !r.p.resumed {
		return nil
	}
	id := r.ids[r.rng.IntN(len(r.ids))]
	r.churned = []uint64{id}
	r.conns[id].Close()
	if err := r.connect(id); err != nil {
		return err
	}
	return r.freshSession(id)
}

func (r *flatRig) config(round, ratchet uint64) secagg.Config {
	plan := r.plan
	return secagg.Config{Round: round, ClientIDs: r.ids, Threshold: r.p.threshold,
		Bits: r.p.bits, Dim: r.p.dim, XNoise: &plan, KeyRatchet: ratchet}
}

// roundTimeout bounds one round so a wedged round fails instead of hanging
// the benchmark.
const roundTimeout = 60 * time.Second

// run executes one round: the handshake (resumed only), the server and
// every client concurrently. It returns once the server and every client
// have returned.
func (r *flatRig) run(ctx context.Context) error {
	r.round++
	ctx, cancel := context.WithTimeout(ctx, roundTimeout)
	defer cancel()
	root := r.m.roundSpan.Load()
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	clear(r.results)
	var wg sync.WaitGroup
	for _, id := range r.ids {
		id, conn := id, r.conns[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.runClient(ctx, id, conn, root)
			if err != nil {
				fail(fmt.Errorf("client %d: %w", id, err))
				return
			}
			mu.Lock()
			r.results[id] = res
			mu.Unlock()
		}()
	}
	if err := r.runServer(ctx, root); err != nil {
		fail(fmt.Errorf("server: %w", err))
	}
	wg.Wait()
	return firstErr
}

func (r *flatRig) runServer(ctx context.Context, root int32) error {
	cfg := core.WireServerConfig{SecAgg: r.config(r.round, 0), StageDeadline: r.p.stageDeadline}
	if r.p.resumed {
		sp := r.m.begin("core.handshake_server", root, 0)
		r.srv.parent.Store(sp)
		hs, err := core.RunHandshakeServer(ctx, core.HandshakeConfig{
			Round: r.round, Protocol: core.ProtocolSecAgg, ClientIDs: r.ids,
			KeyRounds: keyRoundsForever, Signer: r.signer,
		}, r.serverSess, r.eng, r.srv)
		r.m.end(sp)
		if err != nil {
			return err
		}
		r.hs = hs
		cfg = core.WireServerConfig{SecAgg: r.config(hs.Round, hs.Ratchet), StageDeadline: r.p.stageDeadline,
			Session: r.serverSess, Resume: hs.Resume, Divergent: hs.Divergent, Engine: r.eng,
			Transcript: r.recorder}
		cfg.SecAgg.NoiseEpoch = hs.NoiseEpoch
	}
	sp := r.m.begin("core.server_round", root, 0)
	r.srv.parent.Store(sp)
	res, err := core.RunWireServer(ctx, cfg, r.srv)
	r.m.end(sp)
	r.res = res
	return err
}

// keyRoundsForever lets one key generation serve every round of a run, so
// each resumed round re-keys only the churned client's edges.
const keyRoundsForever = 1 << 30

func (r *flatRig) runClient(ctx context.Context, id uint64, conn *clientConn, root int32) (*secagg.Result, error) {
	cfg := core.WireClientConfig{SecAgg: r.config(r.round, 0), ID: id, Input: r.inputs[id],
		DropBefore: core.NoDrop, Rand: crand.Reader}
	if r.p.resumed {
		sess := r.clientSess[id]
		sp := r.m.begin("core.handshake_client", root, id)
		conn.parent.Store(sp)
		hs, err := core.RunHandshakeClient(ctx, core.ClientHandshakeConfig{
			ID: id, Protocol: core.ProtocolSecAgg, ServerPub: r.signer.Public(), Rand: crand.Reader,
		}, sess, conn)
		r.m.end(sp)
		if err != nil {
			return nil, fmt.Errorf("handshake: %w", err)
		}
		cfg.SecAgg = r.config(hs.Round, hs.Ratchet)
		cfg.SecAgg.NoiseEpoch = hs.NoiseEpoch
		cfg.Session, cfg.Resume, cfg.Divergent = sess, hs.Resume, hs.Divergent
		cfg.Transcript = r.auditors[id]
	}
	sp := r.m.begin("core.client_round", root, id)
	conn.parent.Store(sp)
	res, err := core.RunWireClient(ctx, cfg, conn)
	r.m.end(sp)
	if err == nil && res == nil {
		err = fmt.Errorf("no round result")
	}
	return res, err
}

func (r *flatRig) survivors() int { return len(r.ids) }

// wantAgreements is the exact X25519 agreement count of a timed round:
// 2·n·(n−1) with fresh keys (two key pairs per client, each agreed with
// every peer), 4·(n−1) per churned client on a resumed round (the churned
// client re-agrees with every peer and every peer with it, for both key
// pairs).
func (r *flatRig) wantAgreements() uint64 {
	n := uint64(len(r.ids))
	if r.p.resumed {
		return 4 * (n - 1) * uint64(len(r.churned))
	}
	return 2 * n * (n - 1)
}

// check is the round oracle: every client survived, every client holds
// the server's result, the survivor sum is exact up to the XNoise
// residual, the residual has the target's statistics, the agreement count
// is exact, and (resumed) the handshake re-keyed exactly the churned
// client. Every client's transcript audit already passed, or run failed.
func (r *flatRig) check(agreements uint64) error {
	res := r.res
	if res == nil {
		return fmt.Errorf("no server result")
	}
	if !sameIDs(sorted(res.Survivors), r.ids) || len(res.Dropped) > 0 {
		return fmt.Errorf("survivors %d of %d (dropped %v): a fault-free round lost clients",
			len(res.Survivors), len(r.ids), res.Dropped)
	}
	for _, id := range r.ids {
		cr := r.results[id]
		if cr == nil || len(cr.Sum) != len(res.Sum) {
			return fmt.Errorf("client %d holds no full result", id)
		}
		for i := range cr.Sum {
			if cr.Sum[i] != res.Sum[i] {
				return fmt.Errorf("client %d result differs from the server's at %d", id, i)
			}
		}
	}
	mask := uint64(1)<<r.p.bits - 1
	half := uint64(1) << (r.p.bits - 1)
	acc := append([]uint64(nil), res.Sum...)
	for _, id := range r.ids {
		for i, x := range r.inputs[id].Data {
			acc[i] -= x
		}
	}
	resid := make([]float64, r.p.dim)
	for i := range resid {
		v := acc[i] & mask
		if v >= half {
			resid[i] = float64(int64(v) - int64(mask+1))
		} else {
			resid[i] = float64(v)
		}
	}
	// Theorem 1: with no collusion tolerance the enforced noise is exactly
	// the target, whatever the dropout (the oracle takes the target as
	// configured, not from the plan's own arithmetic).
	if err := checkNoise(resid, r.p.targetVar); err != nil {
		return err
	}
	if want := r.wantAgreements(); agreements != want {
		return fmt.Errorf("%d X25519 agreements, want exactly %d", agreements, want)
	}
	if r.p.resumed && (!r.hs.Resume || !sameIDs(r.hs.Divergent, r.churned)) {
		return fmt.Errorf("handshake resume=%v divergent=%v, want a partial re-key of %v",
			r.hs.Resume, r.hs.Divergent, r.churned)
	}
	return nil
}

// upDownBytes is the per-surviving-client traffic of a round, measured on
// the wrapped connections.
func (r *flatRig) upDownBytes(up, down float64) (float64, float64) {
	return up / float64(len(r.ids)), down / float64(len(r.ids))
}

func (r *flatRig) close() {
	r.cancel()
	for _, c := range r.conns {
		c.Close()
	}
	r.srv.Close()
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
