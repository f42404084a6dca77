package secagg

import (
	"fmt"

	"repro/internal/engine"
)

// The SecAgg/SecAgg+ round, written once: Server.RunStages and
// Client.RunStages call every Add*/Seal* and client step of a round in
// protocol order, and an engine carrier moves the messages — typed values
// on channels in-process (Run), codec frames over a transport on the wire
// (core.RunWireServer/RunWireClient). What differs between the two drivers
// belongs to the carrier or the entry point, not here: how a stage ends,
// what a client failure does, the wire's unmask quorum, where a resumed
// wire client's roster comes from, and the wire-only steps after Finalize
// (result broadcast, transcript).

// RunStages runs the server's stage sequence over c and returns the round
// result. With resume, the round starts from the server session's cached
// roster and skips the advertise stage. divergent, with resume, makes the
// resume partial: the cached entries pre-seed the advertise stage, only
// the divergent members advertise fresh keys, and the merged roster goes
// to everyone so the others learn the keys their invalidated edges
// re-agree against.
func (s *Server) RunStages(c engine.Carrier, resume bool, divergent []uint64) (Result, error) {
	collect := func(stage Stage, expect []uint64, apply func(from uint64, body any) error) error {
		return c.Collect(engine.Stage{Name: stage.String(), Tag: int(stage), Expect: expect, Apply: apply})
	}
	send := func(stage Stage, to []uint64, body any) error { return c.Send(int(stage), to, body) }
	ids := s.cfg.ClientIDs

	// Stage 0: AdvertiseKeys.
	var roster []AdvertiseMsg
	if resume && s.session != nil {
		roster = s.session.RosterFor(ids)
	}
	if resume && roster == nil {
		return Result{}, fmt.Errorf("secagg: resume without a cached roster for this client set")
	}
	if resume && len(divergent) == 0 {
		if err := s.InstallRoster(roster); err != nil {
			return Result{}, err
		}
	} else {
		for _, m := range roster {
			if err := s.AddAdvertise(m); err != nil {
				return Result{}, err
			}
		}
		advertisers := ids
		if resume {
			advertisers = divergent
		}
		if err := collect(StageAdvertiseKeys, advertisers, func(_ uint64, body any) error {
			return s.AddAdvertise(body.(AdvertiseMsg))
		}); err != nil {
			return Result{}, err
		}
		var err error
		if roster, err = s.SealAdvertise(); err != nil {
			return Result{}, err
		}
		if s.session != nil {
			s.session.StoreRoster(roster, ids...)
		}
	}
	if err := send(StageShareKeys, s.u1, roster); err != nil {
		return Result{}, err
	}

	// Stage 1: ShareKeys — each sender's list routes into recipient
	// outboxes on arrival.
	if err := collect(StageShareKeys, s.u1, func(from uint64, body any) error {
		return s.AddShare(from, body.([]EncryptedShareMsg))
	}); err != nil {
		return Result{}, err
	}
	deliveries, err := s.SealShares()
	if err != nil {
		return Result{}, err
	}
	for _, id := range s.u2 {
		if err := send(StageMaskedInput, []uint64{id}, deliveries[id]); err != nil {
			return Result{}, err
		}
	}

	// Stage 2: MaskedInputCollection — masked vectors fold into the
	// partial aggregate as they arrive.
	if err := collect(StageMaskedInput, s.u2, func(_ uint64, body any) error {
		return s.AddMasked(body.(MaskedInputMsg))
	}); err != nil {
		return Result{}, err
	}
	u3, err := s.SealMasked()
	if err != nil {
		return Result{}, err
	}
	if err := send(StageConsistencyCheck, u3, u3); err != nil {
		return Result{}, err
	}

	// Stage 3: ConsistencyCheck (signatures empty when semi-honest).
	if err := collect(StageConsistencyCheck, u3, func(_ uint64, body any) error {
		return s.AddConsistency(body.(ConsistencyMsg))
	}); err != nil {
		return Result{}, err
	}
	unmaskReq, err := s.SealConsistency()
	if err != nil {
		return Result{}, err
	}
	if err := send(StageUnmasking, unmaskReq.U4, unmaskReq); err != nil {
		return Result{}, err
	}

	// Stage 4: Unmasking — share bundles index into reconstruction cohorts
	// on arrival.
	if err := collect(StageUnmasking, unmaskReq.U4, func(_ uint64, body any) error {
		return s.AddUnmask(body.(UnmaskMsg))
	}); err != nil {
		return Result{}, err
	}
	noiseReq, err := s.SealUnmask()
	if err != nil {
		return Result{}, err
	}

	// Stage 5: ExcessiveNoiseRemoval, only when survivors died between
	// stages 2 and 4.
	if noiseReq != nil {
		if err := send(StageNoiseRemoval, noiseReq.U5, *noiseReq); err != nil {
			return Result{}, err
		}
		if err := collect(StageNoiseRemoval, noiseReq.U5, func(_ uint64, body any) error {
			return s.AddNoiseShare(body.(NoiseShareMsg))
		}); err != nil {
			return Result{}, err
		}
		if err := s.SealNoiseShares(); err != nil {
			return Result{}, err
		}
	}
	return s.Finalize()
}

// RunStages runs the client's stage sequence over cc (engine.RunClient).
// Without advertise the client skips stage 0 and installs its session's
// keys instead, for a resumed round. The client vanishes before stage
// dropBefore (negative: never) and then reports dropped.
func (c *Client) RunStages(cc engine.ClientCarrier, advertise bool, dropBefore Stage) (dropped bool, err error) {
	return engine.RunClient(cc, c.id, []engine.ClientStep{
		{Stage: int(StageAdvertiseKeys), Op: "advertise", Run: func(any) (any, error) {
			if !advertise {
				return nil, nil
			}
			return c.AdvertiseKeys()
		}},
		{Stage: int(StageShareKeys), Op: "share keys", Run: func(in any) (any, error) {
			if !advertise {
				if err := c.SkipAdvertise(); err != nil {
					return nil, err
				}
			}
			return c.ShareKeys(in.([]AdvertiseMsg))
		}},
		{Stage: int(StageMaskedInput), Op: "masked input", Run: func(in any) (any, error) {
			return c.MaskedInput(in.([]EncryptedShareMsg))
		}},
		{Stage: int(StageConsistencyCheck), Op: "consistency", Run: func(in any) (any, error) {
			return c.ConsistencyCheck(in.([]uint64))
		}},
		{Stage: int(StageUnmasking), Op: "unmask", Run: func(in any) (any, error) {
			return c.Unmask(in.(UnmaskRequest))
		}},
		{Stage: int(StageNoiseRemoval), Op: "noise shares", Run: func(in any) (any, error) {
			return c.RevealNoiseShares(in.(NoiseShareRequest))
		}},
	}, int(dropBefore))
}
