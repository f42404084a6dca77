package main

// The round loops: serve runs the flat server and each shard aggregator,
// join every client. A substrate supplies what differs between SecAgg
// and LightSecAgg; the loops own the engine, the handshake before every
// round, session persistence and the re-dial.

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/lightsecagg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/sessionstore"
	"repro/internal/sig"
	"repro/internal/transcript"
	"repro/internal/transport"
)

// substrate is what differs between the two protocols in a round.
// secaggNode and lsaNode are its implementations.
type substrate interface {
	// handshake fills the substrate's part of the handshake config:
	// protocol, roster and noise epoch.
	handshake() core.HandshakeConfig
	newServerSession() core.ServerSessionState
	// serveRound runs the server side of one negotiated round and
	// returns the result to print.
	serveRound(ctx context.Context, s *server, hs core.Handshake,
		sess core.ServerSessionState, eng *engine.Engine) (string, error)
	// record names the client's session in the session store.
	record(id uint64) string
	// clientSession decodes a stored session; a nil blob makes a fresh one.
	clientSession(blob []byte) (clientSession, error)
	// joinRound runs the client side of one negotiated round and returns
	// its summary.
	joinRound(ctx context.Context, c *client, hs core.Handshake,
		sess clientSession, conn transport.ClientConn) (string, error)
}

// clientSession is a client session as the client loop handles it: the
// handshake's view of it plus its persisted encoding.
type clientSession interface {
	core.ClientSessionState
	MarshalBinary() ([]byte, error)
}

// server is one aggregator: the flat server or, with up set, a shard
// aggregator whose round result folds into the combiner.
type server struct {
	sub               substrate
	srv               *transport.TCPServer
	rounds, keyRounds int
	deadline          time.Duration
	signer            *sig.Signer          // signs the handshake and the transcript chain
	rec               *transcript.Recorder // nil without -transcript
	up                *uplink              // nil for the flat server
}

// uplink is a shard aggregator's connection to the root combiner.
type uplink struct {
	conn     transport.ClientConn
	shard    uint64
	deadline time.Duration // bound for the folded report
}

// serve runs s.rounds rounds: wait for the roster, run the handshake,
// run the round, print its result.
func serve(ctx context.Context, s *server) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One engine (one transport fan-in) spans every handshake and round on
	// this connection; a per-round fan-in would steal frames across the
	// handshake/round boundary.
	eng := engine.New(engine.TransportSource(ctx, s.srv))
	sess := s.sub.newServerSession()
	prefix := ""
	if s.up != nil {
		prefix = fmt.Sprintf("shard %d ", s.up.shard)
	}
	for r := 1; r <= s.rounds; r++ {
		// Round 1 waits for the full roster (service bring-up); later
		// rounds wait at most one stage deadline for re-dials, then let
		// the handshake offer past absentees.
		hcfg := s.sub.handshake()
		bound := s.deadline
		if r == 1 {
			bound = 0
		}
		waitForClients(ctx, s.srv, len(hcfg.ClientIDs), bound)
		hcfg.Round, hcfg.KeyRounds, hcfg.Deadline, hcfg.Signer = uint64(r), s.keyRounds, s.deadline, s.signer
		hs, err := core.RunHandshakeServer(ctx, hcfg, sess, eng, s.srv)
		if err != nil {
			return err
		}
		res, err := s.sub.serveRound(ctx, s, hs, sess, eng)
		if err != nil {
			return err
		}
		fmt.Printf("%sround %d (%s): %s%s", prefix, r, describe(hs), res, tip(s.rec))
	}
	return nil
}

// client is one client process's part in the service.
type client struct {
	sub       substrate
	addr      string
	id, value uint64
	rounds    int
	store     *sessionstore.Store // nil: the session lives in memory only
	serverPub []byte
	aud       *transcript.Auditor
	caud      *transcript.CombineAuditor
	out       io.Writer // per-round progress
}

// join runs c.rounds rounds: dial with backoff, handshake, persist, run
// the round, persist. A failed round is forfeited and the next one
// re-dials: the stored session keeps its in-flight taint, so the next
// handshake lands this client in the divergent subset and re-keys only
// its edges; a failed last round is join's error.
func join(ctx context.Context, c *client) error {
	sess, err := c.load()
	if err != nil {
		return err
	}
	var conn *transport.TCPClient
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for r := 1; r <= c.rounds; r++ {
		if conn == nil {
			if conn, err = dial(ctx, c.addr, c.id); err != nil {
				return err
			}
		}
		if err := c.round(ctx, r, sess, conn); err != nil {
			if ctx.Err() != nil || r == c.rounds {
				return err
			}
			fmt.Fprintf(os.Stderr, "dordis-node: client %d round %d failed: %v\n", c.id, r, err)
			conn.Close()
			conn = nil
		}
	}
	return nil
}

// round runs one handshake and the round it commits.
func (c *client) round(ctx context.Context, r int, sess clientSession, conn *transport.TCPClient) error {
	hs, err := core.RunHandshakeClient(ctx, core.ClientHandshakeConfig{
		ID: c.id, Protocol: c.sub.handshake().Protocol, ServerPub: c.serverPub, Rand: rand.Reader,
	}, sess, conn)
	if err != nil {
		return err
	}
	// Persist immediately after the handshake: the stored state carries
	// the burned ratchet step, the round-in-flight taint and the committed
	// noise epoch, so a crash mid-round restores into a session the next
	// handshake re-keys (at least this client's edges) under the sampler
	// it negotiated.
	if s, ok := sess.(interface{ SetNoiseEpoch(uint64) }); ok {
		s.SetNoiseEpoch(hs.NoiseEpoch)
	}
	if err := c.save(sess); err != nil {
		return err
	}
	summary, err := c.sub.joinRound(ctx, c, hs, sess, conn)
	if err != nil {
		return err
	}
	// Persist again with the taint cleared: the next start may resume.
	if err := c.save(sess); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "client %d round %d (%s): %s\n", c.id, r, describe(hs), summary)
	printAudit(c.out, c.id, c.aud, c.caud)
	return nil
}

// load restores the client's stored session, or makes a fresh one. A
// store auth failure (wrong -session-key-file, tampered record) warns
// loudly: a silently fresh session would re-key every round.
func (c *client) load() (clientSession, error) {
	if c.store != nil {
		record := c.sub.record(c.id)
		blob, err := c.store.Load(record)
		switch {
		case err == nil:
			sess, err := c.sub.clientSession(blob)
			if err == nil {
				fmt.Printf("restored session %s from store\n", record)
				return sess, nil
			}
			fmt.Fprintf(os.Stderr, "dordis-node: stored session %s unreadable, starting fresh\n", record)
		case !errors.Is(err, sessionstore.ErrNotFound):
			fmt.Fprintf(os.Stderr, "dordis-node: session store: %v — starting fresh\n", err)
		}
	}
	return c.sub.clientSession(nil)
}

// save persists the client's session (no-op without a store).
func (c *client) save(sess clientSession) error {
	if c.store == nil {
		return nil
	}
	blob, err := sess.MarshalBinary()
	if err != nil {
		return err
	}
	return c.store.Save(c.sub.record(c.id), blob)
}

func describe(hs core.Handshake) string {
	switch {
	case hs.Partial():
		return fmt.Sprintf("partial re-key of %d member(s), ratchet %d", len(hs.Divergent), hs.Ratchet)
	case hs.Resume:
		return fmt.Sprintf("resumed, ratchet %d", hs.Ratchet)
	default:
		return "re-keyed"
	}
}

// secaggNode runs SecAgg (with XNoise when the config has a plan), flat
// or as one shard of the two-level topology.
type secaggNode struct{ cfg secagg.Config }

func (n secaggNode) handshake() core.HandshakeConfig {
	return core.HandshakeConfig{Protocol: core.ProtocolSecAgg, ClientIDs: n.cfg.ClientIDs,
		NoiseEpoch: n.cfg.NoiseEpoch}
}

func (n secaggNode) newServerSession() core.ServerSessionState { return secagg.NewServerSession() }

// roundConfig is the config of the round the handshake committed.
func (n secaggNode) roundConfig(hs core.Handshake) secagg.Config {
	cfg := n.cfg
	cfg.Round, cfg.KeyRatchet, cfg.NoiseEpoch = hs.Round, hs.Ratchet, hs.NoiseEpoch
	return cfg
}

func (n secaggNode) serveRound(ctx context.Context, s *server, hs core.Handshake,
	sess core.ServerSessionState, eng *engine.Engine) (string, error) {

	cfg := n.roundConfig(hs)
	wcfg := core.WireServerConfig{
		SecAgg: cfg, StageDeadline: s.deadline, Engine: eng, Transcript: s.rec,
		Session: sess.(*secagg.ServerSession), Resume: hs.Resume, Divergent: hs.Divergent,
	}
	if s.up == nil {
		res, err := core.RunWireServer(ctx, wcfg, s.srv)
		if err != nil {
			return "", err
		}
		return formatResult(cfg, res), nil
	}
	report, res, err := core.RunShardWire(ctx, core.ShardWireConfig{
		Shard: s.up.shard, Round: hs.Round, Server: wcfg,
		ReportDeadline: s.up.deadline, RelayCombineTranscript: s.rec != nil,
	}, s.srv, s.up.conn)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d survivors, partial folded; combiner %s", len(res.Survivors), formatReport(report)), nil
}

func (n secaggNode) record(id uint64) string { return fmt.Sprintf("client-%d", id) }

func (n secaggNode) clientSession(blob []byte) (clientSession, error) {
	if blob == nil {
		return secagg.NewSession(rand.Reader)
	}
	return secagg.UnmarshalSession(blob)
}

func (n secaggNode) joinRound(ctx context.Context, c *client, hs core.Handshake,
	sess clientSession, conn transport.ClientConn) (string, error) {

	cfg := n.roundConfig(hs)
	input := ring.NewVector(cfg.Bits, cfg.Dim)
	for i := range input.Data {
		input.Data[i] = c.value & input.Mask()
	}
	res, err := core.RunWireClient(ctx, core.WireClientConfig{
		SecAgg: cfg, ID: c.id, Input: input, DropBefore: core.NoDrop, Rand: rand.Reader,
		Session: sess.(*secagg.Session), Resume: hs.Resume, Divergent: hs.Divergent,
		Transcript: c.aud, CombineTranscript: c.caud,
	}, conn)
	if err != nil || res == nil {
		return "no result", err
	}
	return fmt.Sprintf("complete, %d survivors", len(res.Survivors)), nil
}

// formatResult renders a SecAgg round result: survivors, the aggregate
// and the removed XNoise components.
func formatResult(cfg secagg.Config, res *secagg.Result) string {
	out := fmt.Sprintf("round complete: survivors=%v dropped=%v\naggregate per-coordinate mean: %s\n",
		res.Survivors, res.Dropped, meanOf(ring.Vector{Bits: cfg.Bits, Data: res.Sum}.Centered()))
	if len(res.RemovedComponents) > 0 {
		out += fmt.Sprintf("XNoise removed components: %v\n", res.RemovedComponents)
	}
	return out
}

// meanOf renders the per-coordinate mean and the first 8 coordinates of
// a centered aggregate.
func meanOf(centered []int64) string {
	var sum float64
	for _, v := range centered {
		sum += float64(v)
	}
	return fmt.Sprintf("%.2f (first 8: %v)", sum/float64(len(centered)), centered[:min(8, len(centered))])
}

// lsaNode runs the LightSecAgg baseline (one-shot mask recovery, no DP
// noise); the sharded topology is SecAgg only.
type lsaNode struct{ cfg lightsecagg.Config }

func (n lsaNode) handshake() core.HandshakeConfig {
	return core.HandshakeConfig{Protocol: core.ProtocolLightSecAgg, ClientIDs: n.cfg.ClientIDs}
}

func (n lsaNode) newServerSession() core.ServerSessionState { return lightsecagg.NewServerSession() }

func (n lsaNode) serveRound(ctx context.Context, s *server, hs core.Handshake,
	sess core.ServerSessionState, eng *engine.Engine) (string, error) {

	cfg := n.cfg
	cfg.Round = hs.Round
	sum, err := lightsecagg.RunWireServer(ctx, lightsecagg.WireServerConfig{
		Config: cfg, StageDeadline: s.deadline, Engine: eng,
		Session: sess.(*lightsecagg.ServerSession), Resume: hs.Resume, Divergent: hs.Divergent,
	}, s.srv)
	if err != nil {
		return "", err
	}
	centered := make([]int64, len(sum))
	for i, e := range sum {
		centered[i] = lightsecagg.Center(e)
	}
	return fmt.Sprintf("lightsecagg round complete: per-coordinate mean %s\n", meanOf(centered)), nil
}

func (n lsaNode) record(id uint64) string { return fmt.Sprintf("lsa-client-%d", id) }

func (n lsaNode) clientSession(blob []byte) (clientSession, error) {
	if blob == nil {
		return lightsecagg.NewSession(rand.Reader)
	}
	return lightsecagg.UnmarshalSession(blob)
}

func (n lsaNode) joinRound(ctx context.Context, c *client, hs core.Handshake,
	sess clientSession, conn transport.ClientConn) (string, error) {

	cfg := n.cfg
	cfg.Round = hs.Round
	input := make([]field.Element, cfg.Dim)
	for i := range input {
		input[i] = lightsecagg.Lift(int64(c.value))
	}
	sum, err := lightsecagg.RunWireClient(ctx, lightsecagg.WireClientConfig{
		Config: cfg, ID: c.id, Input: input, DropBefore: lightsecagg.NoDrop, Rand: rand.Reader,
		Session: sess.(*lightsecagg.Session), Resume: hs.Resume, Divergent: hs.Divergent,
	}, conn)
	if err != nil || sum == nil {
		return "no result", err
	}
	return "complete", nil
}
