package engine

import (
	"context"
	"errors"
	"slices"
	"time"

	"repro/internal/transport"
)

// WireStage binds one protocol stage to the wire: the frame tag and codec
// of the client's upload (Up) and of the server message that opens the
// stage (Down; the first stage has none).
type WireStage struct {
	Up, Down             int
	EncodeUp, EncodeDown func(any) ([]byte, error)
	DecodeUp, DecodeDown func([]byte) (any, error)
}

// Encoder and Decoder adapt a typed codec to a WireStage.
func Encoder[T any](enc func(T) ([]byte, error)) func(any) ([]byte, error) {
	return func(v any) ([]byte, error) { return enc(v.(T)) }
}

// Decoder is Encoder's inverse; see Encoder.
func Decoder[T any](dec func([]byte) (T, error)) func([]byte) (any, error) {
	return func(p []byte) (any, error) { return dec(p) }
}

// RosterStage is the stage the sealed roster opens in every substrate:
// stage 0 collects the advertisements, and the server's message opening
// stage 1 is the roster.
const RosterStage = 1

// WireServer is the server end of the wire carrier: a stage collects
// frames through the engine until every expected client answered or the
// deadline fired, and server messages go out as codec frames.
type WireServer struct {
	// FullResume marks a fully resumed round: the roster is not sent,
	// since every client reads it from its own session (SessionClient).
	FullResume bool

	ctx      context.Context
	eng      *Engine
	conn     transport.ServerConn
	deadline time.Duration
	stages   []WireStage
}

// NewWireServer builds the server end over conn. ctx must span the round.
// eng nil builds a round-scoped engine over conn; a connection that
// carries more than one round (or a handshake first) must share one.
func NewWireServer(ctx context.Context, eng *Engine, conn transport.ServerConn,
	deadline time.Duration, stages []WireStage) *WireServer {
	if eng == nil {
		eng = New(TransportSource(ctx, conn))
	}
	return &WireServer{ctx: ctx, eng: eng, conn: conn, deadline: deadline, stages: stages}
}

// Collect implements Carrier.
func (w *WireServer) Collect(s Stage) error {
	ws := w.stages[s.Tag]
	s.Tag, s.Deadline = ws.Up, w.deadline
	s.Decode = func(m Msg) (any, error) { return ws.DecodeUp(m.Body.([]byte)) }
	_, err := w.eng.Collect(w.ctx, s)
	return err
}

// Send implements Carrier.
func (w *WireServer) Send(stage int, to []uint64, body any) error {
	if w.FullResume && stage == RosterStage {
		return nil
	}
	payload, err := w.stages[stage].EncodeDown(body)
	if err != nil {
		return err
	}
	for _, id := range to {
		// An error means the client vanished; the protocol's thresholds
		// handle that downstream.
		_ = w.conn.SendTo(id, transport.Frame{Stage: w.stages[stage].Down, Payload: payload})
	}
	return nil
}

// WireClient is the client end of the wire carrier. The round's result
// frame may arrive in place of the last stage's opening message (a round
// that needs nothing more from this client); Recv then keeps it for
// RecvResult and returns no message.
type WireClient struct {
	ctx       context.Context
	conn      transport.ClientConn
	stages    []WireStage
	resultTag int
	result    []byte
}

// NewWireClient builds the client end over conn; resultTag tags the
// round's result frame.
func NewWireClient(ctx context.Context, conn transport.ClientConn, stages []WireStage, resultTag int) *WireClient {
	return &WireClient{ctx: ctx, conn: conn, stages: stages, resultTag: resultTag}
}

// Send implements ClientCarrier.
func (w *WireClient) Send(stage int, body any) error {
	payload, err := w.stages[stage].EncodeUp(body)
	if err != nil {
		return err
	}
	return w.conn.Send(transport.Frame{Stage: w.stages[stage].Up, Payload: payload})
}

// Recv implements ClientCarrier.
func (w *WireClient) Recv(stage int) (any, error) {
	tags := []int{w.stages[stage].Down}
	if stage == len(w.stages)-1 {
		tags = append(tags, w.resultTag)
	}
	f, err := w.RecvFrame(w.ctx, tags...)
	if err != nil {
		return nil, err
	}
	if f.Stage == w.resultTag {
		w.result = f.Payload
		return nil, nil
	}
	return w.stages[stage].DecodeDown(f.Payload)
}

// RecvResult returns the payload of the round's result frame, waiting for
// it unless it already arrived.
func (w *WireClient) RecvResult() ([]byte, error) {
	if w.result != nil {
		return w.result, nil
	}
	f, err := w.RecvFrame(w.ctx, w.resultTag)
	return f.Payload, err
}

// RecvFrame blocks for the next frame carrying one of tags, discarding
// any other (stale broadcasts, replays).
func (w *WireClient) RecvFrame(ctx context.Context, tags ...int) (transport.Frame, error) {
	for {
		f, err := w.conn.Recv(ctx)
		if err != nil || slices.Contains(tags, f.Stage) {
			return f, err
		}
	}
}

// SessionClient is the wire client carrier of a round on a client
// session. On a full resume the roster comes from the session and no
// roster frame is awaited (the server sends none); otherwise the roster
// received is stored in the session, so the next round can resume on it.
// Roster is the roster the round ran on, for the transcript audit.
type SessionClient[M RosterMember] struct {
	*WireClient
	Session    *Continuity[M] // nil: no session
	FullResume bool
	Roster     []M
}

// Recv implements ClientCarrier.
func (w *SessionClient[M]) Recv(stage int) (any, error) {
	if stage != RosterStage {
		return w.WireClient.Recv(stage)
	}
	if w.FullResume {
		if w.Roster = w.Session.Roster(); w.Roster == nil {
			return nil, errors.New("engine: resume without a cached roster")
		}
		return w.Roster, nil
	}
	body, err := w.WireClient.Recv(stage)
	if err != nil {
		return nil, err
	}
	w.Roster = body.([]M)
	if w.Session != nil {
		w.Session.StoreRoster(w.Roster)
	}
	return body, nil
}
