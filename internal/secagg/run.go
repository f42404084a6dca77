package secagg

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/sig"
)

// DropSchedule maps a client id to the stage *before* which it vanishes:
// a client with DropSchedule[id] = StageMaskedInput completes AdvertiseKeys
// and ShareKeys but never uploads its masked input (the paper's §6.1
// dropout model: "they drop out after being sampled but before sending
// their masked and perturbed update"). Clients absent from the map never
// drop.
type DropSchedule = engine.DropSchedule[Stage]

// RunResult bundles the round outcome with the protocol actors, which
// white-box tests inspect.
type RunResult struct {
	Result  Result
	Server  *Server
	Clients map[uint64]*Client
}

// Run executes one full aggregation round in-process: the shared stage
// sequences (Server.RunStages, Client.RunStages) over the in-process
// carrier (engine.InProc). Every live client runs as its own goroutine,
// its stage messages stream into the round engine as typed values, and
// the server's incremental Add*/Seal* methods consume them on arrival —
// client compute overlaps
// server-side collection, per the paper's §4.1 pipelining claim. Dropouts
// are injected per the schedule with the same semantics as the historical
// sequential driver: a client that drops before stage k contributes to
// every stage before k and none from k on. signers may be nil in the
// semi-honest setting.
func Run(cfg Config, inputs map[uint64]ring.Vector, signers map[uint64]*sig.Signer,
	drops DropSchedule, rand io.Reader) (*RunResult, error) {
	return RunWithSessions(cfg, inputs, signers, drops, rand, nil)
}

// RunWithSessions is Run with an optional set of shared key-agreement
// sessions. The first round on fresh sessions runs the full protocol and
// populates them (key pairs, pairwise secrets, the sealed roster);
// subsequent rounds on the same sessions skip the advertise stage
// entirely (the roster is cached and the keys unchanged) and hit the
// secret caches instead of re-running X25519 — per-chunk masks stay
// independent through Config.MaskEpoch, per-round masks through
// Config.KeyRatchet.
func RunWithSessions(cfg Config, inputs map[uint64]ring.Vector, signers map[uint64]*sig.Signer,
	drops DropSchedule, rand io.Reader, sess *RoundSessions) (*RunResult, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	resume := sess.resumable(&cfg, drops)
	var srvSess *ServerSession
	if sess != nil {
		if err := sess.markServed(cfg.KeyRatchet, cfg.MaskEpoch); err != nil {
			return nil, err
		}
		srvSess = sess.Server
	}
	server, err := NewSessionServer(cfg, srvSess)
	if err != nil {
		return nil, err
	}
	shared := engine.LockedReader(rand)
	clients := make(map[uint64]*Client, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		input, ok := inputs[id]
		if !ok {
			return nil, fmt.Errorf("secagg: no input for client %d", id)
		}
		var signer *sig.Signer
		if signers != nil {
			signer = signers[id]
		}
		var cs *Session
		if sess != nil {
			cs = sess.Client[id]
		}
		c, err := NewSessionClient(cfg, id, input, signer, shared, cs)
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
		c, dropBefore := clients[id], drops.Before(id)
		carrier.Go(id, func(cc engine.ClientCarrier) error {
			_, err := c.RunStages(cc, !resume, dropBefore)
			return err
		})
	}
	// Resumed rounds hand every client the server's cached roster.
	res, err := server.RunStages(carrier, resume, nil)
	if err != nil {
		return nil, err
	}
	return &RunResult{Result: res, Server: server, Clients: clients}, nil
}
