package lightsecagg

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/field"
)

// In-process driver: one full LightSecAgg round on the shared stage
// sequences (Server.RunStages, Client.RunStages) over the in-process
// carrier (engine.InProc), every live client as its own goroutine. Coded
// shares travel inside pairwise AEAD envelopes in-process too, so both
// drivers exercise identical crypto and the session layer's
// channel-secret cache is observable in both.

// Stage identifies a point in the client lifecycle, for dropout
// injection and in-process uplink tags.
type Stage int

// The client lifecycle points. A client that drops "before" a stage
// completes every earlier stage and none from that stage on.
const (
	StageAdvertise Stage = iota
	StageShares
	StageMaskedInput
	StageAggShare
	stageCount
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	names := [...]string{"advertise", "shares", "masked-input", "agg-share"}
	if s < 0 || int(s) >= len(names) {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return names[s]
}

// DropSchedule maps a client id to the stage *before* which it vanishes.
// Clients absent from the map never drop. Note that the offline phase
// (advertise + shares) needs every sampled client, so scheduling a drop
// before StageAdvertise or StageShares aborts the round — the supported
// dropout points of the §6.1 model are StageMaskedInput (vanish before
// uploading; excluded from the aggregate) and StageAggShare (vanish
// before answering the one-shot recovery; included in the aggregate).
type DropSchedule = engine.DropSchedule[Stage]

// Run executes one full round in-process with dropout injection. Clients
// in dropsBeforeUpload complete offline sharing but never upload;
// clients in dropsBeforeRecovery upload but never answer the recovery
// request. Returns the sum over clients that uploaded. (Compatibility
// wrapper over RunWithSessions with the historical dropout signature.)
func Run(cfg Config, inputs map[uint64][]field.Element,
	dropsBeforeUpload, dropsBeforeRecovery map[uint64]bool, rand io.Reader) ([]field.Element, error) {

	drops := make(DropSchedule, len(dropsBeforeUpload)+len(dropsBeforeRecovery))
	for id, d := range dropsBeforeUpload {
		if d {
			drops[id] = StageMaskedInput
		}
	}
	for id, d := range dropsBeforeRecovery {
		if d && !(dropsBeforeUpload[id]) {
			drops[id] = StageAggShare
		}
	}
	return RunWithSessions(cfg, inputs, drops, rand, nil)
}

// RunWithSessions is Run with a per-stage drop schedule and an optional
// set of shared sessions. The first round on fresh sessions runs the full
// protocol and populates them (channel secrets, encoding matrix, the
// sealed roster); subsequent rounds on the same sessions skip the
// advertise stage entirely and hit the caches instead of re-running
// X25519 and the Lagrange weight computations. Masks are drawn fresh
// every round regardless — session reuse never repeats a mask stream.
func RunWithSessions(cfg Config, inputs map[uint64][]field.Element,
	drops DropSchedule, rand io.Reader, sess *RoundSessions) ([]field.Element, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	resume := sess.resumable(cfg)
	var srvSess *ServerSession
	if sess != nil {
		srvSess = sess.Server
	}
	server, err := NewSessionServer(cfg, srvSess)
	if err != nil {
		return nil, err
	}
	shared := engine.LockedReader(rand)
	clients := make(map[uint64]*Client, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		if _, ok := inputs[id]; !ok {
			return nil, fmt.Errorf("lightsecagg: no input for client %d", id)
		}
		var cs *Session
		if sess != nil {
			cs = sess.Client[id]
		}
		c, err := NewSessionClient(cfg, id, shared, cs)
		if err != nil {
			return nil, err
		}
		clients[id] = c
	}

	carrier := engine.NewInProc(cfg.ClientIDs, int(stageCount), func(id uint64, s int) bool {
		return drops.Participates(id, Stage(s))
	})
	defer carrier.Close()
	for _, id := range cfg.ClientIDs {
		c, input, dropBefore := clients[id], inputs[id], drops.Before(id)
		carrier.Go(id, func(cc engine.ClientCarrier) error {
			_, err := c.RunStages(cc, input, !resume, dropBefore)
			return err
		})
	}
	// Resumed rounds hand every client the server's cached roster.
	return server.RunStages(carrier, resume, nil)
}
