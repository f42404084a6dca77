package main

// Sharded (multi-aggregator) deployment roles. The two-level topology
// runs each shard as a full dordis aggregation service over its
// sub-roster — the same server loop, handshake, engine and round body the
// flat server role uses — plus one upward TCP leg to a root combiner
// that folds the masked shard partials (PROTOCOL.md §combiner). Start the
// combiner, then one shard aggregator per shard, then the clients:
//
//	dordis-node -role combiner -listen :7800 -shards 4 -shard-quorum 3
//	dordis-node -role shard -shard-id 0 -shards 4 -listen :7700 \
//	    -combiner-addr host:7800 -clients 1,...,100 -threshold 3
//	dordis-node -role client -connect shard0:7700 -id 1 -shards 4 -clients 1,...,100
//
// Shard aggregators and clients both derive the same contiguous shard
// plan from (-clients, -shards), so a client only needs the address of
// the shard that owns its id. With -tolerance > 0 each shard draws
// independent Skellam noise at mu/S — the XNoise decomposition that
// makes S shards compose to the central -mu (see package combine). Give
// the combiner, every shard and every client the same -rounds.
//
// Or run the whole topology in one process over loopback TCP:
//
//	dordis-node -role shardtest -shards 4 -clients 1,...,20
//	dordis-node -role shardtest -shards 4 -kill-shard 3 -shard-quorum 3
//
// -kill-shard crashes one shard aggregator mid-round; with a quorum the
// round completes degraded (the report names the missing shard) instead
// of aborting — the combiner's core guarantee.

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/transcript"
	"repro/internal/transport"
)

// subRoster derives the sub-roster of the shard this process serves —
// -shard-id for a shard aggregator, the shard owning -id for a client —
// from the contiguous plan every party derives from (-clients, -shards).
func subRoster(o *options, ids []uint64) ([]uint64, error) {
	plan, err := core.NewShardPlan(ids, o.shards)
	if err != nil {
		return nil, err
	}
	s, who := int(o.shardID), fmt.Sprintf("shard id %d", o.shardID)
	if o.role == "client" {
		s, who = plan.ShardOf(o.id), fmt.Sprintf("client %d", o.id)
	}
	if s < 0 || s >= o.shards {
		return nil, fmt.Errorf("%s is outside the %d-shard plan of -clients", who, o.shards)
	}
	return plan.Rosters[s], nil
}

// shardNode builds one shard's round: the sub-roster, the per-shard
// threshold/tolerance, and the split noise target mu/S.
func shardNode(o *options, sub []uint64) (substrate, error) {
	n, err := newSubstrate(o, sub, o.mu/float64(o.shards))
	if err != nil {
		return nil, fmt.Errorf("shard config (threshold and tolerance apply per shard): %w", err)
	}
	return n, nil
}

// runCombiner runs o.rounds combiner rounds over the shard aggregators
// connecting to srv and returns the last round's report.
func runCombiner(ctx context.Context, srv *transport.TCPServer, o *options,
	rec *transcript.Recorder) (*combine.RoundReport, error) {

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	shardIDs := make([]uint64, o.shards)
	for i := range shardIDs {
		shardIDs[i] = uint64(i)
	}
	// One engine spans every round on this connection, like the server
	// loop: shard partials for round r+1 must not race the round-r report.
	eng := engine.New(engine.TransportSource(ctx, srv))
	quorum := o.shardQuorum
	if quorum <= 0 {
		quorum = o.shards
	}
	// Round 1 waits for a quorum of shard dials (bring-up); later rounds
	// reuse the live connections and the partial stage does the waiting.
	waitForClients(ctx, srv, quorum, 0)
	var report *combine.RoundReport
	for r := 1; r <= o.rounds; r++ {
		// No hello stage (AwaitHellos): the engine discards partials that
		// arrive while it collects hellos, and a shard whose clients are
		// quick finishes its round before a slow shard says hello.
		var err error
		report, err = core.RunCombiner(ctx, core.CombinerConfig{
			Round: uint64(r), ShardIDs: shardIDs, Quorum: o.shardQuorum,
			StageDeadline: o.combineDeadline, Engine: eng, Transcript: rec,
		}, srv)
		if err != nil {
			return nil, err
		}
		fmt.Printf("round %d: %s%s", r, formatReport(report), tip(rec))
	}
	return report, nil
}

func formatReport(report *combine.RoundReport) string {
	state := "complete"
	if report.Degraded {
		state = fmt.Sprintf("DEGRADED (missing shards %v)", report.Missing)
	}
	return fmt.Sprintf("%s: shards=%v survivors=%d dropped=%d, folded per-coordinate mean %s\n",
		state, report.Contributing, len(report.Survivors), len(report.Dropped), meanOf(report.Sum.Centered()))
}

// shardSelfTest runs the whole two-level topology in one process over
// loopback TCP: the combiner loop, and per shard a server loop with an
// upward connection and its clients' loops, each client sending the
// constant vector 1. -kill-shard cancels that shard's context mid-round;
// with a quorum below -shards the round must complete degraded.
// -transcript wires the verifiable-transcript layer through both tiers
// with throwaway signing keys: every client audits its shard's signed
// root and the shard root's inclusion in the combiner's tree.
func shardSelfTest(o *options, ids []uint64) error {
	plan, err := core.NewShardPlan(ids, o.shards)
	if err != nil {
		return err
	}
	comb, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer comb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	combSigner, combPub, err := testSigner(o)
	if err != nil {
		return err
	}

	var clients []*client
	var waits []func() error
	for s, sub := range plan.Rosters {
		node, err := shardNode(o, sub)
		if err != nil {
			return err
		}
		up, err := transport.DialTCP(comb.Addr(), uint64(s))
		if err != nil {
			return err
		}
		sv := &server{sub: node, rounds: o.rounds, keyRounds: o.keyRounds, deadline: o.deadline,
			up: &uplink{conn: up, shard: uint64(s), deadline: o.combineDeadline}}
		shardCtx, kill := context.WithCancel(ctx)
		defer kill()
		if s == o.killShard {
			// Crash after the clients are mid-protocol: presence announced,
			// round under way — the worst-case loss for the combiner.
			time.AfterFunc(300*time.Millisecond, kill)
		}
		cs, wait, err := loopback(shardCtx, o, sv, combPub, func(int) uint64 { return 1 })
		if err != nil {
			return err
		}
		clients = append(clients, cs...)
		waits = append(waits, wait)
	}

	report, err := runCombiner(ctx, comb, o, recorder(combPub != nil, combSigner))
	if err != nil {
		cancel()
	}
	for s, wait := range waits { // shards drain the report broadcast before teardown
		if err := wait(); err != nil && s != o.killShard {
			fmt.Fprintln(os.Stderr, "shard", s, ":", err)
		}
	}
	if err != nil {
		return err
	}
	// Every client fed a constant 1, so the folded sum per coordinate is
	// the survivor count (plus XNoise when -tolerance > 0).
	fmt.Printf("expected per-coordinate mean ~%d over %d contributing shard(s)\n",
		len(report.Survivors), len(report.Contributing))
	if combPub != nil {
		var tierOne, tierTwo int
		for _, c := range clients {
			if len(c.aud.History()) > 0 {
				tierOne++
			}
			if len(c.caud.History()) > 0 {
				tierTwo++
			}
		}
		fmt.Printf("transcripts: %d/%d clients verified their shard tier, %d the combiner tier\n",
			tierOne, len(clients), tierTwo)
	}
	return nil
}
