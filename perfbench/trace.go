package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/engine"
)

// phases are the round phases the frame timeline splits a round into.
var phases = []string{"advertise", "shares", "masked", "consistency", "unmask", "result",
	"handshake", "transcript"}

// selfSpans are the spans whose self time (duration minus the part their
// child spans cover) is reported.
var selfSpans = []string{"round", "core.handshake_server", "core.handshake_client",
	"core.server_round", "core.client_round", "core.sharded_round"}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// stamps holds the first and last time each stage tag crossed one side
// of a connection in one round (-1: never).
type stamps struct{ first, last [maxTag]int64 }

func newStamps() *stamps {
	s := &stamps{}
	for i := range s.first {
		s.first[i], s.last[i] = -1, -1
	}
	return s
}

func (s *stamps) note(tag int, at int64) {
	i := tagSlot(tag)
	if s.first[i] < 0 {
		s.first[i] = at
	}
	s.last[i] = at
}

// gap returns to − from in seconds when both exist and are ordered.
func gap(from, to int64) (float64, bool) {
	if from < 0 || to < 0 || to < from {
		return 0, false
	}
	return secs(to - from), true
}

// roundTrace is one traced round's spans and frame events.
type roundTrace struct {
	window     span
	spans      []span
	clientRecv map[uint64]*stamps
	clientSend map[uint64]*stamps
	serverRecv *stamps
	serverSend *stamps
	// recvWait is the server's receive time inside the window: the
	// engine's fan-in receive can start in one round and end in the next.
	recvWait int64
}

// splitRounds buckets spans and events into the round spans' windows:
// spans by start time, events by time, server receive time by overlap.
func splitRounds(spans []span, events []event) []*roundTrace {
	var rounds []*roundTrace
	for _, sp := range spans {
		if sp.Name == "round" {
			rounds = append(rounds, &roundTrace{window: sp,
				clientRecv: map[uint64]*stamps{}, clientSend: map[uint64]*stamps{},
				serverRecv: newStamps(), serverSend: newStamps()})
		}
	}
	// first returns the index of the first round ending at or after at.
	first := func(at int64) int {
		return sort.Search(len(rounds), func(i int) bool { return rounds[i].window.End >= at })
	}
	find := func(at int64) *roundTrace {
		if i := first(at); i < len(rounds) && rounds[i].window.Start <= at {
			return rounds[i]
		}
		return nil
	}
	for _, sp := range spans {
		if sp.Name == "transport.server_recv" {
			for i := first(sp.Start); i < len(rounds) && rounds[i].window.Start <= sp.End; i++ {
				w := rounds[i].window
				rounds[i].recvWait += overlap(sp.Start, sp.End, w.Start, w.End)
			}
			continue
		}
		if rt := find(sp.Start); rt != nil && sp.Name != "round" {
			rt.spans = append(rt.spans, sp)
		}
	}
	side := func(m map[uint64]*stamps, id uint64) *stamps {
		s := m[id]
		if s == nil {
			s = newStamps()
			m[id] = s
		}
		return s
	}
	for _, ev := range events {
		rt := find(ev.At)
		if rt == nil {
			continue
		}
		switch ev.Kind {
		case clientSend:
			side(rt.clientSend, ev.Client).note(ev.Tag, ev.At)
		case clientRecv:
			side(rt.clientRecv, ev.Client).note(ev.Tag, ev.At)
		case serverSend:
			rt.serverSend.note(ev.Tag, ev.At)
		case serverRecv:
			rt.serverRecv.note(ev.Tag, ev.At)
		}
	}
	return rounds
}

// clientPhases measures each phase on one client: from receiving the
// frame that opens it to the client's reply (or, for the closing phases,
// to the client's return).
func clientPhases(recv, send *stamps, round, hs *span) map[string]float64 {
	out := map[string]float64{}
	put := func(p string, from, to int64) {
		if d, ok := gap(from, to); ok {
			out[p] = d
		}
	}
	if d, ok := gap(recv.first[engine.TagRoundOffer], send.first[engine.TagRoundAck]); ok {
		if hs != nil {
			if d2, ok := gap(recv.first[engine.TagRoundCommit], hs.End); ok {
				d += d2
			}
		}
		out["handshake"] = d
	}
	if round == nil {
		return out
	}
	put("advertise", round.Start, send.first[tagAdvertise])
	open := recv.first[tagRoster]
	if open < 0 {
		open = round.Start
	}
	put("shares", open, send.first[tagShares])
	put("masked", recv.first[tagDeliver], send.first[tagMasked])
	put("consistency", recv.first[tagConsistencyReq], send.first[tagConsistency])
	put("unmask", recv.first[tagUnmaskReq], send.first[tagUnmask])
	closeAt := round.End
	if c := recv.first[engine.TagTranscriptCommit]; c >= 0 {
		closeAt = c
		put("transcript", c, round.End)
	}
	put("result", recv.first[tagResult], closeAt)
	return out
}

// serverPhases measures each phase's server tail: from the last uplink of
// the phase to the first downlink of the next.
func serverPhases(recv, send *stamps) map[string]float64 {
	out := map[string]float64{}
	put := func(p string, from, to int64) {
		if d, ok := gap(from, to); ok {
			out[p] = d
		}
	}
	put("handshake", recv.last[engine.TagRoundAck], send.first[engine.TagRoundCommit])
	put("advertise", recv.last[tagAdvertise], send.first[tagRoster])
	put("shares", recv.last[tagShares], send.first[tagDeliver])
	put("masked", recv.last[tagMasked], send.first[tagConsistencyReq])
	put("consistency", recv.last[tagConsistency], send.first[tagUnmaskReq])
	next := send.first[tagResult]
	if nr := send.first[tagNoiseReq]; nr >= 0 && (next < 0 || nr < next) {
		next = nr
	}
	put("unmask", recv.last[tagUnmask], next)
	put("result", send.first[tagResult], send.last[tagResult])
	put("transcript", send.last[tagResult], send.last[engine.TagTranscriptProof])
	return out
}

// overlap is the part of [s, e] inside [ws, we], in nanoseconds.
func overlap(s, e, ws, we int64) int64 {
	s, e = max(s, ws), min(e, we)
	if e < s {
		return 0
	}
	return e - s
}

// selfTimes returns each span's duration minus the union of its
// children's intervals (clipped to the span).
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), sp.Start
		for _, k := range kids {
			s, e := max(k.Start, cur), min(k.End, sp.End)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		self[sp.ID] = sp.End - sp.Start - covered
	}
	return self
}

// layerMetrics turns the traced rounds into the per-layer timing
// metrics: phase client and server times, transport waits, core call
// durations and self times. Every value is the median over rounds.
func layerMetrics(spans []span, events []event) map[string]float64 {
	rounds := splitRounds(spans, events)
	self := selfTimes(spans)
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	for _, rt := range rounds {
		w := rt.window
		clientRounds := map[uint64]*span{}
		handshakes := map[uint64]*span{}
		var clientWait, sendBlock int64
		selfBy := map[string][]float64{"round": {secs(self[w.ID])}}
		var clientDur []float64
		for i := range rt.spans {
			sp := &rt.spans[i]
			switch sp.Name {
			case "transport.client_recv":
				clientWait += overlap(sp.Start, sp.End, w.Start, w.End)
				continue
			case "transport.client_send", "transport.server_send":
				sendBlock += sp.End - sp.Start
				continue
			case "core.client_round":
				clientRounds[sp.Client] = sp
				clientDur = append(clientDur, secs(sp.End-sp.Start))
			case "core.handshake_client":
				handshakes[sp.Client] = sp
			case "core.handshake_server":
				add("core.handshake_s", secs(sp.End-sp.Start))
			case "core.server_round", "core.sharded_round":
				add("core.server_round_s", secs(sp.End-sp.Start))
			}
			selfBy[sp.Name] = append(selfBy[sp.Name], secs(self[sp.ID]))
		}
		for name, v := range selfBy {
			add("self."+name+"_s", mean(v))
		}
		if len(clientDur) > 0 {
			add("core.client_round_s", median(clientDur))
			add("core.client_round_max_s", maxOf(clientDur))
		}
		add("transport.server_recv_wait_s", secs(rt.recvWait))
		add("transport.send_block_s", secs(sendBlock))
		if len(clientRounds) > 0 {
			add("transport.client_recv_wait_s", secs(clientWait)/float64(len(clientRounds)))
		}

		byPhase := map[string][]float64{}
		for id := range rt.clientRecv {
			send := rt.clientSend[id]
			if send == nil {
				send = newStamps()
			}
			for p, d := range clientPhases(rt.clientRecv[id], send, clientRounds[id], handshakes[id]) {
				byPhase[p] = append(byPhase[p], d)
			}
		}
		for p, ds := range byPhase {
			add("phase."+p+".client_s", median(ds))
			add("phase."+p+".client_max_s", maxOf(ds))
		}
		for p, d := range serverPhases(rt.serverRecv, rt.serverSend) {
			add("phase."+p+".server_s", d)
		}
	}

	out := map[string]float64{}
	for _, p := range phases {
		for _, k := range []string{"client_s", "client_max_s", "server_s"} {
			out["phase."+p+"."+k] = 0
		}
	}
	for _, name := range selfSpans {
		out["self."+name+"_s"] = 0
	}
	for _, k := range []string{"core.handshake_s", "core.server_round_s", "core.client_round_s",
		"core.client_round_max_s", "transport.server_recv_wait_s", "transport.client_recv_wait_s",
		"transport.send_block_s"} {
		out[k] = 0
	}
	for k, vs := range per {
		out[k] = median(vs)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// writeSpans writes spans to path, one JSON object a line.
func writeSpans(spans []span, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
