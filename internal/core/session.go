package core

import (
	"io"
	"slices"
	"sync"

	"repro/internal/lightsecagg"
	"repro/internal/secagg"
)

// SessionPool owns the key-agreement sessions RunRound amortizes over: one
// secagg.Session per sampled client plus the server's cache. Within one
// RunRound every chunk shares the pool's sessions, so the m-chunk pipeline
// performs n·k X25519 agreements instead of m·n·k; across RunRound calls
// the pool reuses the same key generation for up to RatchetRounds rounds,
// ratcheting every cached secret one step per round (and skipping the
// advertise stage) instead of re-advertising.
//
// Threat-model gate: cross-round reuse is only sound when the deployment
// accepts that one X25519 key generation serves several rounds. The masks
// of healthy rounds stay independent through the ratchet, but the
// protection is not retroactive: a client that drops in a later round
// hands the server its raw root key (the unchanged private key is
// re-shared every round), from which the server can re-derive that
// client's masks for the earlier rounds of the same key generation and
// unmask its past updates (doc.go, caveat 1). RatchetRounds ≤ 1 confines
// the pool to within-round amortization — the SecAgg+ assumption of one
// key-agreement phase per round — which is the conservative default. The
// pool also regenerates the sessions of clients scheduled to drop
// (tainted before the round runs, so aborted rounds taint too): their
// mask keys may have been reconstructed by the server, so reusing them
// next round would hand the server their future pairwise masks.
type SessionPool struct {
	// RatchetRounds is the number of consecutive rounds one key generation
	// may serve. Values ≤ 1 mean within-round amortization only.
	RatchetRounds int

	mu     sync.Mutex
	secagg poolArm[*secagg.RoundSessions]
	// Rounds pinned to ProtocolLightSecAgg draw their sessions here
	// instead, under the same reuse policy but with no taint: its server
	// never reconstructs client key material (dropout recovery
	// interpolates the aggregate mask), so a dropped client's session
	// stays sound and droppers do not force a re-key.
	lsa poolArm[*lightsecagg.RoundSessions]
}

// poolArm is one substrate's pooled key generation: its sessions, the
// client set they were made for, and the rounds they have served.
type poolArm[S any] struct {
	sess   S
	ids    []uint64
	rounds int
}

// NewSessionPool returns a pool that reuses each key generation for up to
// ratchetRounds consecutive rounds (≤ 1: within-round amortization only).
func NewSessionPool(ratchetRounds int) *SessionPool {
	return &SessionPool{RatchetRounds: ratchetRounds}
}

// reuse returns the arm's sessions for a round over ids and the ratchet
// step the round runs at. It reuses the pooled sessions when the client
// set is unchanged, the key generation has rounds left under limit, and
// sound approves them; otherwise it makes fresh ones (step 0). The caller
// holds the pool lock.
func (a *poolArm[S]) reuse(ids []uint64, limit int, sound func(S) bool, fresh func() (S, error)) (S, uint64, error) {
	if a.rounds > 0 && a.rounds < max(limit, 1) && slices.Equal(a.ids, ids) && sound(a.sess) {
		a.rounds++
		return a.sess, uint64(a.rounds - 1), nil
	}
	sess, err := fresh()
	if err != nil {
		return sess, 0, err
	}
	a.sess, a.ids, a.rounds = sess, slices.Clone(ids), 1
	return sess, 0, nil
}

// acquire returns the secagg sessions for a round over ids plus the
// ratchet step the round must run at, burning that step on the server
// session. Reuse additionally requires that the session layer carries no
// dropout taint. Taint lives in secagg.ServerSession — the same store the
// wire re-key handshake consults — so reconstruction observed by any
// driver (in-process DropSchedule or a real wire dropout) forces the same
// re-key.
func (p *SessionPool) acquire(ids []uint64, rand io.Reader) (*secagg.RoundSessions, uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sess, step, err := p.secagg.reuse(ids, p.RatchetRounds,
		func(s *secagg.RoundSessions) bool { return !s.Server.HasTaint() },
		func() (*secagg.RoundSessions, error) { return secagg.NewRoundSessions(ids, rand) })
	if err != nil {
		return nil, 0, err
	}
	sess.Server.MarkRatchetUsed(step)
	return sess, step, nil
}

// acquireLightSecAgg returns the LightSecAgg sessions for a round over
// ids: the pooled set when the client roster is unchanged and the key
// generation has rounds left (subsequent rounds then skip the advertise
// stage on the cached roster), fresh sessions otherwise.
func (p *SessionPool) acquireLightSecAgg(ids []uint64, rand io.Reader) (*lightsecagg.RoundSessions, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sess, _, err := p.lsa.reuse(ids, p.RatchetRounds,
		func(*lightsecagg.RoundSessions) bool { return true },
		func() (*lightsecagg.RoundSessions, error) { return lightsecagg.NewRoundSessions(ids, rand) })
	return sess, err
}

// invalidate marks clients whose sessions must not survive into the next
// round (the server reconstructed — or may have reconstructed — their mask
// keys). The taint is recorded on the pooled secagg.ServerSession, the
// same store Server.unmask taints organically when it actually
// reconstructs a key; the next acquire sees it and regenerates every
// session (a partial roster cannot skip the advertise stage anyway).
func (p *SessionPool) invalidate(ids []uint64) {
	if len(ids) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.secagg.sess != nil {
		p.secagg.sess.Server.MarkTainted(ids...)
	}
}
