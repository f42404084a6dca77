package lightsecagg

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/field"
)

// The LightSecAgg round, written once: Server.RunStages and
// Client.RunStages call every Add*/Seal* and client step of a round in
// protocol order, and an engine carrier moves the messages — typed values
// on channels in-process (RunWithSessions), codec frames over a transport
// on the wire (RunWireServer/RunWireClient). How a stage ends, what a
// client failure does, where a resumed wire client's roster comes from,
// and the wire's result broadcast belong to the carrier or the entry
// point, not here.

// RunStages runs the server's stage sequence over c and returns Σ x_i
// over the clients that uploaded. With resume, the round starts from the
// server session's cached roster and skips the advertise stage.
// divergent, with resume, makes the resume partial: the cached entries
// pre-seed the advertise stage, only the divergent members advertise
// fresh channel keys, and the merged roster goes to everyone.
func (s *Server) RunStages(c engine.Carrier, resume bool, divergent []uint64) ([]field.Element, error) {
	collect := func(stage Stage, expect []uint64, quorum int, apply func(from uint64, body any) error) error {
		return c.Collect(engine.Stage{Name: stage.String(), Tag: int(stage), Expect: expect, Quorum: quorum, Apply: apply})
	}
	ids := s.cfg.ClientIDs

	// Stage 0: channel keys. Every apply below stamps the engine-verified
	// sender over whatever the message claims, so one client cannot spoof
	// another's advertisement, upload, or share under the wrong rank.
	var roster []AdvertiseMsg
	if resume && s.session != nil {
		roster = s.session.RosterFor(ids)
	}
	if resume && roster == nil {
		return nil, fmt.Errorf("lightsecagg: resume without a cached roster for this client set")
	}
	if resume && len(divergent) == 0 {
		if err := s.InstallRoster(roster); err != nil {
			return nil, err
		}
	} else {
		for _, m := range roster {
			if err := s.AddAdvertise(m); err != nil {
				return nil, err
			}
		}
		advertisers := ids
		if resume {
			advertisers = divergent
		}
		if err := collect(StageAdvertise, advertisers, 0, func(from uint64, body any) error {
			m := body.(AdvertiseMsg)
			m.From = from
			return s.AddAdvertise(m)
		}); err != nil {
			return nil, err
		}
		var err error
		if roster, err = s.SealAdvertise(); err != nil {
			return nil, err
		}
		if s.session != nil {
			s.session.StoreRoster(roster, ids...)
		}
	}
	if err := c.Send(int(StageShares), ids, roster); err != nil {
		return nil, err
	}

	// Stage 1: sealed coded shares, routed into per-recipient outboxes on
	// arrival.
	if err := collect(StageShares, ids, 0, func(from uint64, body any) error {
		return s.AddShareBundle(from, body.([]Envelope))
	}); err != nil {
		return nil, err
	}
	deliveries, err := s.SealShareBundles()
	if err != nil {
		return nil, err
	}
	for id, envs := range deliveries {
		if err := c.Send(int(StageMaskedInput), []uint64{id}, envs); err != nil {
			return nil, err
		}
	}

	// Stage 2: masked uploads fold into the running partial aggregate as
	// they arrive; the stage close is a threshold check plus sort.
	if err := collect(StageMaskedInput, ids, 0, func(from uint64, body any) error {
		m := body.(MaskedMsg)
		m.From = from
		return s.AddMasked(m)
	}); err != nil {
		return nil, err
	}
	survivors, err := s.SealMasked()
	if err != nil {
		return nil, err
	}
	if err := c.Send(int(StageAggShare), survivors, survivors); err != nil {
		return nil, err
	}

	// Stage 3: one-shot recovery — any U aggregate shares complete the
	// stage (engine quorum), then the seal interpolates the mask sum.
	if err := collect(StageAggShare, survivors, s.cfg.RecoveryThreshold(), func(from uint64, body any) error {
		m := body.(AggShareMsg)
		m.From = from
		return s.AddAggShare(m)
	}); err != nil {
		return nil, err
	}
	return s.SealAggShares()
}

// RunStages runs the client's stage sequence over cc (engine.RunClient),
// uploading input masked. Without advertise the client skips stage 0 (a
// resumed round). The client vanishes before stage dropBefore (negative:
// never) and then reports dropped.
func (c *Client) RunStages(cc engine.ClientCarrier, input []field.Element, advertise bool, dropBefore Stage) (dropped bool, err error) {
	return engine.RunClient(cc, c.id, []engine.ClientStep{
		{Stage: int(StageAdvertise), Op: "advertise", Run: func(any) (any, error) {
			if !advertise {
				return nil, nil
			}
			return c.Advertise(), nil
		}},
		{Stage: int(StageShares), Op: "seal shares", Run: func(in any) (any, error) {
			return c.SealShares(in.([]AdvertiseMsg))
		}},
		{Stage: int(StageMaskedInput), Op: "masked input", Run: func(in any) (any, error) {
			if err := c.OpenEnvelopes(in.([]Envelope)); err != nil {
				return nil, err
			}
			y, err := c.MaskedInput(input)
			if err != nil {
				return nil, err
			}
			return MaskedMsg{From: c.id, Y: y}, nil
		}},
		{Stage: int(StageAggShare), Op: "aggregate share", Run: func(in any) (any, error) {
			s, err := c.AggregateShare(in.([]uint64))
			if err != nil {
				return nil, err
			}
			return AggShareMsg{From: c.id, S: s}, nil
		}},
	}, int(dropBefore))
}
