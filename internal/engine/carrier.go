package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Carriers. Each substrate writes its round once, as one server stage
// sequence (secagg.Server.RunStages, lightsecagg.Server.RunStages) and one
// client stage sequence (a RunClient step table). The sequences never
// touch a channel or a connection: a carrier moves each stage's messages.
// There are two kinds. InProc carries typed values on channels between
// goroutines, with nothing encoded or copied; WireServer and WireClient
// (wire.go) carry codec frames over a transport, each substrate binding
// its stages to tags and codecs in a WireStage table. A carrier owns
// everything that differs between the two: how a stage ends, what a
// client failure does, and where a resumed client's roster comes from.

// Carrier is the server end of a round's message carrier.
type Carrier interface {
	// Collect runs one client-to-server stage. s.Tag is the protocol
	// stage; the carrier maps it to its own tags and adds what its medium
	// needs (decoding, a deadline, which expected senders are alive).
	Collect(s Stage) error
	// Send hands body, the server's message opening protocol stage
	// stage, to every id in to. A client that vanished is not an error.
	Send(stage int, to []uint64, body any) error
}

// ClientCarrier is the client end of a round's message carrier.
type ClientCarrier interface {
	// Send uploads the client's message for protocol stage stage.
	Send(stage int, body any) error
	// Recv blocks for the server's message opening protocol stage stage.
	// A nil body with a nil error means no such message comes for this
	// client.
	Recv(stage int) (any, error)
}

// ClientStep is one stage of a client's sequence: Run turns the server's
// message opening Stage into the client's upload for it. A nil upload
// sends nothing.
type ClientStep struct {
	Stage int
	Op    string // names the step in errors
	Run   func(in any) (out any, err error)
}

// RunClient runs client id's stage sequence over cc. Every step but the
// first waits for the server's message opening its stage; the first step
// opens the round. The client vanishes before stage dropBefore (negative:
// never) and then reports dropped.
func RunClient(cc ClientCarrier, id uint64, steps []ClientStep, dropBefore int) (dropped bool, err error) {
	for i, st := range steps {
		var in any
		if i > 0 {
			if in, err = cc.Recv(st.Stage); err != nil || in == nil {
				return false, err
			}
		}
		if dropBefore >= 0 && st.Stage >= dropBefore {
			return true, nil
		}
		out, runErr := st.Run(in)
		if runErr != nil {
			return false, fmt.Errorf("client %d %s: %w", id, st.Op, runErr)
		}
		if out == nil {
			continue
		}
		if err = cc.Send(st.Stage, out); err != nil {
			return false, err
		}
	}
	return false, nil
}

// DropSchedule maps a client id to the protocol stage before which it
// vanishes: the client completes every earlier stage and none from that
// stage on. Clients absent from the map never drop.
type DropSchedule[S ~int] map[uint64]S

// Participates reports whether the client is still alive at the stage.
func (d DropSchedule[S]) Participates(id uint64, s S) bool {
	dropStage, drops := d[id]
	return !drops || s < dropStage
}

// Participants filters ids to those alive at the stage.
func (d DropSchedule[S]) Participants(ids []uint64, s S) []uint64 {
	return slices.DeleteFunc(slices.Clone(ids), func(id uint64) bool { return !d.Participates(id, s) })
}

// Before returns the stage the client vanishes before, or -1 if it never
// drops: the dropBefore of RunClient.
func (d DropSchedule[S]) Before(id uint64) S {
	if s, ok := d[id]; ok {
		return s
	}
	return -1
}

// errRoundOver is what an in-process client's Recv returns once the round
// ended without sending it the stage's message.
var errRoundOver = errors.New("engine: round over")

// InProc is the in-process carrier: every client runs its sequence on its
// own goroutine, client messages reach the engine as typed values on one
// uplink channel, and server messages land in per-client inboxes.
// Stages have no deadline: each stage expects only the clients that alive
// keeps in it, and every one of those deterministically answers or fails.
// A client's failure aborts the round with the client's error.
type InProc struct {
	eng     *Engine
	alive   func(id uint64, stage int) bool
	uplink  chan Msg
	inboxes map[uint64]chan any
	wg      sync.WaitGroup
}

// NewInProc builds the carrier for clients ids over a protocol of stages
// stages. alive reports whether a client still takes part in a stage (the
// round's drop schedule).
func NewInProc(ids []uint64, stages int, alive func(id uint64, stage int) bool) *InProc {
	// Buffers are sized so no send ever blocks (at most one uplink message
	// per client per stage, one inbox message per stage), which lets the
	// round abort at any stage without stranding goroutines.
	p := &InProc{
		alive:   alive,
		uplink:  make(chan Msg, len(ids)*(stages+1)),
		inboxes: make(map[uint64]chan any, len(ids)),
	}
	for _, id := range ids {
		p.inboxes[id] = make(chan any, stages+1)
	}
	p.eng = New(func(ctx context.Context) (Msg, error) {
		select {
		case m := <-p.uplink:
			return m, nil
		case <-ctx.Done():
			return Msg{}, ctx.Err()
		}
	})
	return p
}

// Collect implements Carrier.
func (p *InProc) Collect(s Stage) error {
	s.Expect = slices.DeleteFunc(slices.Clone(s.Expect), func(id uint64) bool { return !p.alive(id, s.Tag) })
	apply := s.Apply
	s.Apply = func(from uint64, body any) error {
		if err, ok := body.(error); ok {
			return err // a client's stage failure aborts the round
		}
		return apply(from, body)
	}
	_, err := p.eng.Collect(context.Background(), s)
	return err
}

// Send implements Carrier.
func (p *InProc) Send(_ int, to []uint64, body any) error {
	for _, id := range to {
		p.inboxes[id] <- body
	}
	return nil
}

// Go runs client id's sequence on its own goroutine. An error from run
// reaches the server as the client's message for the stage it was working
// on: the last one whose server message it received.
func (p *InProc) Go(id uint64, run func(ClientCarrier) error) {
	c := &inProcClient{id: id, inbox: p.inboxes[id], uplink: p.uplink}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := run(c); err != nil && err != errRoundOver {
			c.uplink <- Msg{From: id, Stage: c.stage, Body: err}
		}
	}()
}

// Close ends the round for every client still waiting on a server message
// and waits for all client goroutines. Call it after the server sequence
// returned.
func (p *InProc) Close() {
	for _, inbox := range p.inboxes {
		close(inbox)
	}
	p.wg.Wait()
}

type inProcClient struct {
	id     uint64
	stage  int // the stage this client is working on
	inbox  <-chan any
	uplink chan<- Msg
}

func (c *inProcClient) Send(stage int, body any) error {
	c.uplink <- Msg{From: c.id, Stage: stage, Body: body}
	return nil
}

func (c *inProcClient) Recv(stage int) (any, error) {
	body, ok := <-c.inbox
	if !ok {
		return nil, errRoundOver
	}
	c.stage = stage
	return body, nil
}

// LockedReader serializes reads so concurrent goroutines (in-process
// clients, concurrent shard rounds) can share one entropy source.
// Deterministic test readers are rarely safe for concurrent use;
// crypto/rand.Reader is safe either way.
func LockedReader(r io.Reader) io.Reader {
	return &lockedReader{r: r}
}

type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}
