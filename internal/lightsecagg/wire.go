package lightsecagg

// Wire driver: one LightSecAgg round over a transport.Transport. The stage
// sequence is this package's own (Server.RunStages, Client.RunStages);
// this file is the wire carrier that moves its messages as codec frames,
// plus the result broadcast. Coded mask shares relay through the
// untrusted server (the star topology of §3.3) inside pairwise AEAD
// envelopes keyed by X25519 agreement — otherwise the server could
// collect U of them and unmask every client.
//
// Frames:
//
//	0 advertise   client → server: X25519 channel public key
//	1 roster      server → clients: all public keys (gob)
//	2 shares      client → server: sealed coded shares (binary codec)
//	3 deliver     server → client: the envelopes addressed to it
//	4 masked      client → server: y_i = x_i + z_i (binary codec)
//	5 survivors   server → clients: ids that uploaded (gob)
//	6 aggshare    client → server: Σ_{i∈survivors} f_i(α_me) (binary)
//	7 result      server → clients: the aggregate (binary codec)
//
// The server collects every stage through engine.Collect: frames are
// admitted as they arrive, decoded concurrently on the bounded worker
// pool, and applied to the incremental Server in admission order, each
// stage ending when every client answered or at the stage deadline (the
// recovery stage on the first U aggregate shares). With sessions
// (WireServerConfig.Session / WireClientConfig.Session and the Resume
// flags), consecutive rounds skip the advertise round trip and reuse the
// cached channel secrets and coding matrices.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/transport"
)

// Wire stage tags (transport.Frame.Stage).
const (
	wireAdvertise = iota
	wireRoster
	wireShares
	wireDeliver
	wireMasked
	wireSurvivors
	wireAggShare
	wireResult
)

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("lightsecagg: encoding payload: %w", err)
	}
	return buf.Bytes(), nil
}

// gobDecode decodes a gob control message into a T.
func gobDecode[T any](p []byte) (any, error) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&v); err != nil {
		return nil, fmt.Errorf("lightsecagg: decoding payload: %w", err)
	}
	return v, nil
}

// WireServerConfig configures the wire server for one round.
type WireServerConfig struct {
	Config        Config
	StageDeadline time.Duration // per-stage collection deadline

	// Session, when non-nil, carries the recovery-weight and roster caches
	// across the rounds that share it; with Resume, the advertise stage is
	// skipped entirely and the round starts from the session's cached
	// roster (the deployment must set the matching flags on every client).
	// Whether the next round may resume is what the re-key handshake
	// (core.RunHandshakeServer) negotiates.
	Session *ServerSession
	Resume  bool
	// Divergent, with Resume, makes the resume partial (core handshake's
	// divergent subset): the advertise stage collects fresh channel keys
	// from exactly this subset, merges them with the cached roster, and
	// broadcasts the merged roster to everyone.
	Divergent []uint64

	// Engine, when non-nil, is an externally owned round engine whose
	// transport fan-in this round collects through. Multi-round deployments
	// must share one engine across the handshake and every round on a
	// connection — a second fan-in would steal frames from the first. nil
	// builds a round-scoped engine (single-round callers).
	Engine *engine.Engine
}

// wireStages binds each protocol stage to its frame tags and codecs.
var wireStages = []engine.WireStage{
	StageAdvertise: {Up: wireAdvertise,
		EncodeUp: func(v any) ([]byte, error) { return v.(AdvertiseMsg).Pub, nil },
		DecodeUp: func(p []byte) (any, error) { return AdvertiseMsg{Pub: p}, nil }},
	StageShares: {Up: wireShares, Down: wireRoster,
		EncodeUp: engine.Encoder(encodeEnvelopes), DecodeUp: engine.Decoder(decodeEnvelopes),
		EncodeDown: gobEncode, DecodeDown: gobDecode[[]AdvertiseMsg]},
	StageMaskedInput: {Up: wireMasked, Down: wireDeliver,
		EncodeUp: engine.Encoder(encodeMasked), DecodeUp: engine.Decoder(decodeMasked),
		EncodeDown: engine.Encoder(encodeEnvelopes), DecodeDown: engine.Decoder(decodeEnvelopes)},
	StageAggShare: {Up: wireAggShare, Down: wireSurvivors,
		EncodeUp: engine.Encoder(encodeAggShare), DecodeUp: engine.Decoder(decodeAggShare),
		EncodeDown: gobEncode, DecodeDown: gobDecode[[]uint64]},
}

// RunWireServer drives the server side of one LightSecAgg round through
// the shared round engine.
func RunWireServer(ctx context.Context, cfg WireServerConfig, conn transport.ServerConn) ([]field.Element, error) {
	if err := cfg.Config.Validate(); err != nil {
		return nil, err
	}
	if cfg.StageDeadline <= 0 {
		cfg.StageDeadline = 2 * time.Second
	}
	if cfg.Resume && cfg.Session == nil {
		return nil, fmt.Errorf("lightsecagg: resume requires a server session")
	}
	server, err := NewSessionServer(cfg.Config, cfg.Session)
	if err != nil {
		return nil, err
	}
	roundCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w := engine.NewWireServer(roundCtx, cfg.Engine, conn, cfg.StageDeadline, wireStages)
	w.FullResume = cfg.Resume && len(cfg.Divergent) == 0
	sum, err := server.RunStages(w, cfg.Resume, cfg.Divergent)
	if err != nil {
		return nil, err
	}
	resPayload, err := encodeLSAResult(sum)
	if err != nil {
		return nil, err
	}
	for _, id := range server.Survivors() {
		_ = conn.SendTo(id, transport.Frame{Stage: wireResult, Payload: resPayload}) // vanished clients are not an error
	}
	return sum, nil
}

// NoDrop marks a wire client that never drops out.
const NoDrop Stage = -1

// WireClientConfig configures one wire client.
type WireClientConfig struct {
	Config Config
	ID     uint64
	Input  []field.Element
	// DropBefore makes the client vanish before the given protocol stage
	// (testing hook matching DropSchedule). Use NoDrop for a client that
	// completes the round.
	DropBefore Stage
	Rand       io.Reader

	// Session, when non-nil, carries this client's channel key, pairwise
	// secrets, and encoding matrix across the rounds that share it; with
	// Resume, the advertise round trip is skipped and the client resumes
	// on its cached roster (the deployment must set the matching flags on
	// the server).
	Session *Session
	Resume  bool
	// Divergent, with Resume, makes the resume partial: a divergent client
	// advertises its fresh channel key like a re-keyed one; every other
	// client skips advertise but waits for the merged roster broadcast
	// instead of reusing its cached copy.
	Divergent []uint64
}

// RunWireClient drives one client through the round. It returns the
// aggregate (nil when the client drops or is excluded from the result
// broadcast).
func RunWireClient(ctx context.Context, cfg WireClientConfig, conn transport.ClientConn) ([]field.Element, error) {
	if err := cfg.Config.Validate(); err != nil {
		return nil, err
	}
	if cfg.Resume && cfg.Session == nil {
		return nil, fmt.Errorf("lightsecagg: resume requires a client session")
	}
	client, err := NewSessionClient(cfg.Config, cfg.ID, cfg.Rand, cfg.Session)
	if err != nil {
		return nil, err
	}
	// A re-keyed client advertises; a resumed one takes its cached roster
	// (full resume) or the merged roster broadcast (partial resume). A
	// divergent member of a partial resume advertises fresh.
	w := &engine.SessionClient[AdvertiseMsg]{
		WireClient: engine.NewWireClient(ctx, conn, wireStages, wireResult),
		FullResume: cfg.Resume && len(cfg.Divergent) == 0}
	if cfg.Session != nil {
		w.Session = &cfg.Session.Continuity
	}
	advertise := !cfg.Resume || slices.Contains(cfg.Divergent, cfg.ID)
	dropped, err := client.RunStages(w, cfg.Input, advertise, cfg.DropBefore)
	if err != nil {
		return nil, err
	}
	if dropped {
		return nil, conn.Close()
	}
	payload, err := w.RecvResult()
	if err != nil {
		return nil, err
	}
	// Clean completion: clear the in-flight marker the handshake set (a
	// no-op on LightSecAgg sessions, which never carry taint, but kept for
	// lifecycle symmetry with the secagg wire client).
	if cfg.Session != nil {
		cfg.Session.ClearTaint()
	}
	return decodeLSAResult(payload)
}
