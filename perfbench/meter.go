package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/transport"
)

// The meter is the benchmark's only instrumentation. It sits outside the
// program: it wraps the transport connections the benchmark hands to core
// and records spans around the benchmark's own calls into core.
// Byte counts are always on (two atomic adds per frame); spans and the
// frame timeline are kept only while tracing is on.

// frameHeader is the transport frame header transport.writeFrame puts in
// front of every payload ([From:8][Stage:4][Len:8], PROTOCOL.md).
const frameHeader = 20

// Stage tags of the SecAgg wire round (core/wire.go, PROTOCOL.md "Stage
// tag spaces"), mirrored here because core keeps them unexported.
const (
	tagAdvertise = iota
	tagRoster
	tagShares
	tagDeliver
	tagMasked
	tagConsistencyReq
	tagConsistency
	tagUnmaskReq
	tagUnmask
	tagNoiseReq
	tagNoise
	tagResult
)

// stageNames names every stage tag a wire round carries, in report order.
var stageNames = []struct {
	tag  int
	name string
}{
	{tagAdvertise, "advertise"}, {tagRoster, "roster"}, {tagShares, "shares"},
	{tagDeliver, "deliver"}, {tagMasked, "masked"}, {tagConsistencyReq, "consistency_req"},
	{tagConsistency, "consistency"}, {tagUnmaskReq, "unmask_req"}, {tagUnmask, "unmask"},
	{tagNoiseReq, "noise_req"}, {tagNoise, "noise"}, {tagResult, "result"},
	{engine.TagRoundHello, "hs_hello"}, {engine.TagRoundOffer, "hs_offer"},
	{engine.TagRoundAck, "hs_ack"}, {engine.TagRoundCommit, "hs_commit"},
	{engine.TagTranscriptCommit, "tr_commit"}, {engine.TagTranscriptProof, "tr_proof"},
}

// maxTag bounds the per-tag counters; every tag above lands in the last
// slot, which no reported stage uses.
const maxTag = 128

func tagSlot(tag int) int {
	if tag < 0 || tag >= maxTag {
		return maxTag - 1
	}
	return tag
}

// span is one timed interval: a call the benchmark made into the program
// or a transport call core made through a wrapped connection. Times
// are nanoseconds since the meter's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	Name   string `json:"name"`
	Client uint64 `json:"client,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type eventKind uint8

const (
	clientSend eventKind = iota
	clientRecv
	serverSend
	serverRecv
)

// event is one frame crossing a wrapped connection: who, which way, which
// stage tag, when.
type event struct {
	At     int64
	Client uint64
	Kind   eventKind
	Tag    int
}

type meter struct {
	epoch time.Time
	// up and down count bytes (payload plus frame header) that clients
	// sent and received, by stage tag.
	up, down [maxTag]atomic.Uint64

	tracing   atomic.Bool
	round     atomic.Int32
	roundSpan atomic.Int32

	mu     sync.Mutex
	spans  []span
	events []event
}

func newMeter() *meter {
	m := &meter{epoch: time.Now()}
	m.roundSpan.Store(-1)
	return m
}

func (m *meter) now() int64 { return int64(time.Since(m.epoch)) }

// begin opens a span and returns its id (-1 when not tracing).
func (m *meter) begin(name string, parent int32, client uint64) int32 {
	if !m.tracing.Load() {
		return -1
	}
	t := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	id := int32(len(m.spans))
	m.spans = append(m.spans, span{ID: id, Parent: parent, Round: m.round.Load(),
		Name: name, Client: client, Start: t, End: t})
	return id
}

// end closes a span opened by begin.
func (m *meter) end(id int32) {
	if id < 0 {
		return
	}
	t := m.now()
	m.mu.Lock()
	m.spans[id].End = t
	m.mu.Unlock()
}

// add records a finished span.
func (m *meter) add(name string, parent int32, client uint64, start, end int64) {
	m.mu.Lock()
	m.spans = append(m.spans, span{ID: int32(len(m.spans)), Parent: parent, Round: m.round.Load(),
		Name: name, Client: client, Start: start, End: end})
	m.mu.Unlock()
}

func (m *meter) event(at int64, client uint64, kind eventKind, tag int) {
	m.mu.Lock()
	m.events = append(m.events, event{At: at, Client: client, Kind: kind, Tag: tag})
	m.mu.Unlock()
}

// snapshot copies the spans and events recorded so far.
func (m *meter) snapshot() ([]span, []event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]span(nil), m.spans...), append([]event(nil), m.events...)
}

// bytes returns the client up and down byte totals by stage tag so far.
func (m *meter) bytes() (up, down [maxTag]uint64) {
	for i := range up {
		up[i] = m.up[i].Load()
		down[i] = m.down[i].Load()
	}
	return up, down
}

// clientConn wraps one client's connection. parent is the span of the
// core call the client goroutine is currently in.
type clientConn struct {
	inner  transport.ClientConn
	m      *meter
	id     uint64
	parent atomic.Int32
}

func (m *meter) wrapClient(c transport.ClientConn, id uint64) *clientConn {
	w := &clientConn{inner: c, m: m, id: id}
	w.parent.Store(-1)
	return w
}

func (c *clientConn) Send(f transport.Frame) error {
	c.m.up[tagSlot(f.Stage)].Add(uint64(len(f.Payload) + frameHeader))
	if !c.m.tracing.Load() {
		return c.inner.Send(f)
	}
	t0 := c.m.now()
	c.m.event(t0, c.id, clientSend, f.Stage)
	err := c.inner.Send(f)
	c.m.add("transport.client_send", c.parent.Load(), c.id, t0, c.m.now())
	return err
}

func (c *clientConn) Recv(ctx context.Context) (transport.Frame, error) {
	if !c.m.tracing.Load() {
		f, err := c.inner.Recv(ctx)
		if err == nil {
			c.m.down[tagSlot(f.Stage)].Add(uint64(len(f.Payload) + frameHeader))
		}
		return f, err
	}
	t0 := c.m.now()
	f, err := c.inner.Recv(ctx)
	t1 := c.m.now()
	c.m.add("transport.client_recv", c.parent.Load(), c.id, t0, t1)
	if err == nil {
		c.m.down[tagSlot(f.Stage)].Add(uint64(len(f.Payload) + frameHeader))
		c.m.event(t1, c.id, clientRecv, f.Stage)
	}
	return f, err
}

func (c *clientConn) Close() error { return c.inner.Close() }

// serverConn wraps the server endpoint. Sends belong to the server call
// in progress (parent); receives are made by the engine's fan-in
// goroutine, which outlives single calls, so they hang off the round span.
type serverConn struct {
	inner  transport.ServerConn
	m      *meter
	parent atomic.Int32
}

func (m *meter) wrapServer(s transport.ServerConn) *serverConn {
	w := &serverConn{inner: s, m: m}
	w.parent.Store(-1)
	return w
}

func (s *serverConn) SendTo(client uint64, f transport.Frame) error {
	if !s.m.tracing.Load() {
		return s.inner.SendTo(client, f)
	}
	t0 := s.m.now()
	s.m.event(t0, client, serverSend, f.Stage)
	err := s.inner.SendTo(client, f)
	s.m.add("transport.server_send", s.parent.Load(), 0, t0, s.m.now())
	return err
}

func (s *serverConn) Recv(ctx context.Context) (transport.Frame, error) {
	if !s.m.tracing.Load() {
		return s.inner.Recv(ctx)
	}
	t0 := s.m.now()
	f, err := s.inner.Recv(ctx)
	t1 := s.m.now()
	s.m.add("transport.server_recv", s.m.roundSpan.Load(), 0, t0, t1)
	if err == nil {
		s.m.event(t1, f.From, serverRecv, f.Stage)
	}
	return f, err
}

func (s *serverConn) Clients() []uint64 { return s.inner.Clients() }
func (s *serverConn) Close() error      { return s.inner.Close() }
