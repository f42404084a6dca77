package secagg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/aead"
	"repro/internal/dh"
	"repro/internal/engine"
	"repro/internal/prg"
)

// Key-agreement amortization (the "agree once, fork per-chunk streams"
// layer). X25519 agreement is the dominant fixed cost of a round: a
// 64-client complete-graph round spends ~57% of its time in ~2·n·(n−1)
// agreements, and the per-chunk drivers multiply that by the chunk count m
// because every chunk historically built an independent secagg round with
// fresh key pairs. A Session caches one participant's key pairs and the
// pairwise shared secrets they produce, so the m chunks of one logical
// round (and, with ratcheting, consecutive rounds) perform n·k agreements
// total instead of m·n·k:
//
//   - pairwise agreement happens once per (round, pair) on first use and is
//     cached by peer public key;
//   - per-chunk mask seeds fork from the cached secret by domain-separated
//     KDF expansion (pairMaskSeed with Config.MaskEpoch = chunk index);
//     epoch 0 is byte-identical to the session-less derivation;
//   - consecutive rounds sharing a session ratchet every cached secret one
//     dh.Ratchet step forward (Config.KeyRatchet = round offset) instead of
//     re-advertising fresh keys, which is exactly the separation of one
//     key-agreement phase from many masked aggregations that SecAgg+
//     (Bell et al., CCS 2020) assumes.
//
// Threat-model caveats (see doc.go): ratcheting separates per-round masks
// and bounds key lifetime, but the X25519 private keys persist for
// re-sharing, so session reuse does not provide forward secrecy against
// endpoint-state compromise; and a client whose mask key was reconstructed
// by the server (it dropped mid-round) must not reuse that session —
// core.SessionPool regenerates dropped clients' sessions automatically.

// pairMaskSeed derives the PRG seed for the pairwise mask between two
// clients from their (possibly ratcheted) shared secret. Epoch 0 is
// byte-identical to the historical derivation, pinned by the golden
// seed-identity test; epoch e > 0 forks an independent seed via dh.Expand
// with a chunk label.
func pairMaskSeed(secret [dh.SharedSize]byte, epoch uint64) prg.Seed {
	if epoch == 0 {
		return prg.NewSeed([]byte("dordis/secagg/pairmask/v1"), secret[:])
	}
	info := make([]byte, 0, 40)
	info = append(info, []byte("dordis/secagg/pairmask/chunk/v1/")...)
	info = binary.LittleEndian.AppendUint64(info, epoch)
	return prg.Seed(dh.Expand(secret, info))
}

// ratchetedSecret is a cached pairwise secret at a given ratchet step.
type ratchetedSecret struct {
	step uint64
	sec  [dh.SharedSize]byte
}

// advanceTo returns the secret ratcheted forward to step. It never goes
// backwards; callers re-derive from the key pair when an earlier step is
// needed (drivers advance monotonically, so that path is cold).
func (r ratchetedSecret) advanceTo(step uint64) ratchetedSecret {
	for r.step < step {
		r.sec = dh.Ratchet(r.sec)
		r.step++
	}
	return r
}

// Session is one client's amortized key-agreement state: the two X25519
// key pairs it advertises and the pairwise secrets agreed with each peer,
// cached across the sub-rounds (pipeline chunks) and rounds that share the
// session. Safe for concurrent use — mask expansion fans agreements across
// a worker pool.
type Session struct {
	// The cached stage-0 roster (advertise skip) and the derivation-point
	// high-water mark: the lowest KeyRatchet step this key generation has
	// not served yet. Resuming at an earlier step would repeat pairwise
	// mask streams, so the handshake refuses offers below it.
	engine.Continuity[AdvertiseMsg]

	cipherKey *dh.KeyPair // c^PK / c^SK
	maskKey   *dh.KeyPair // s^PK / s^SK

	mu      sync.Mutex
	mask    map[string]ratchetedSecret // peer mask pub → secret
	channel map[string]ratchetedSecret // peer cipher pub → channel key

	// taint marks a round in flight or abandoned, driven by the re-key
	// handshake (core.RunHandshakeClient) and persisted with the session:
	// set when the client commits to a round, cleared only on clean
	// completion. A client that vanished mid-round may have had its mask
	// key reconstructed by the server, so a tainted session must never
	// resume — the next handshake reports the taint and forces a re-key.
	taint bool
	// noiseEpoch is the noise draw-sequence version (Config.NoiseEpoch)
	// the session last committed to in a handshake. Persisted so a
	// restored client resumes under the sampler it negotiated rather
	// than a process default — resumed peers must never mix epoch
	// sequences within a round.
	noiseEpoch uint64
}

// NewSession generates the session's key pairs with randomness from rand.
func NewSession(rand io.Reader) (*Session, error) {
	cipherKey, err := dh.Generate(rand)
	if err != nil {
		return nil, err
	}
	maskKey, err := dh.Generate(rand)
	if err != nil {
		return nil, err
	}
	return &Session{
		cipherKey: cipherKey,
		maskKey:   maskKey,
		mask:      make(map[string]ratchetedSecret),
		channel:   make(map[string]ratchetedSecret),
	}, nil
}

// keyPairs returns the session's current key pairs under the lock (Rekey
// swaps them, so concurrent readers must not touch the fields directly).
func (s *Session) keyPairs() (cipherKey, maskKey *dh.KeyPair) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cipherKey, s.maskKey
}

// cachedAgreement resolves a pairwise secret at the given ratchet step
// through a cache guarded by mu — the one cache protocol both Session and
// ServerSession use: read under the lock; on a miss (or a request for an
// earlier step than the cached one, which only a non-monotonic driver
// produces) run the agreement outside the lock (it is the expensive part
// and deterministic, so a racing duplicate computes the identical value);
// ratchet forward to step; store only monotonically.
func cachedAgreement(mu *sync.Mutex, cache map[string]ratchetedSecret, key string,
	step uint64, agree func() ([dh.SharedSize]byte, error)) ([dh.SharedSize]byte, error) {

	mu.Lock()
	c, ok := cache[key]
	mu.Unlock()
	if !ok || c.step > step {
		raw, err := agree()
		if err != nil {
			return raw, err
		}
		c = ratchetedSecret{step: 0, sec: raw}
	}
	c = c.advanceTo(step)
	mu.Lock()
	if cur, ok := cache[key]; !ok || cur.step <= c.step {
		cache[key] = c
	}
	mu.Unlock()
	return c.sec, nil
}

// secretFrom returns the shared secret with the peer at the given ratchet
// step, agreeing on first use and caching the result.
func (s *Session) secretFrom(kp *dh.KeyPair, cache map[string]ratchetedSecret,
	peerPub []byte, step uint64) ([dh.SharedSize]byte, error) {

	return cachedAgreement(&s.mu, cache, string(peerPub), step,
		func() ([dh.SharedSize]byte, error) { return kp.Agree(peerPub) })
}

// maskSecret returns the pairwise-mask secret with the peer identified by
// its advertised mask public key, at the given ratchet step.
func (s *Session) maskSecret(peerPub []byte, step uint64) ([dh.SharedSize]byte, error) {
	_, maskKey := s.keyPairs()
	return s.secretFrom(maskKey, s.mask, peerPub, step)
}

// channelSecret returns the channel-encryption key with the peer
// identified by its advertised cipher public key, at the given ratchet
// step.
func (s *Session) channelSecret(peerPub []byte, step uint64) ([aead.KeySize]byte, error) {
	cipherKey, _ := s.keyPairs()
	return s.secretFrom(cipherKey, s.channel, peerPub, step)
}

// Taint marks a round in flight on this session: until ClearTaint, the
// session must not resume (the server may have reconstructed the mask key
// of a client that vanished mid-round). Drivers taint when they commit to
// a round and clear only on clean completion, so a crash-and-restore
// surfaces as taint at the next handshake.
func (s *Session) Taint() {
	s.mu.Lock()
	s.taint = true
	s.mu.Unlock()
}

// ClearTaint marks the in-flight round cleanly completed.
func (s *Session) ClearTaint() {
	s.mu.Lock()
	s.taint = false
	s.mu.Unlock()
}

// Tainted reports whether the session carries dropout taint.
func (s *Session) Tainted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.taint
}

// NoiseEpoch returns the noise draw-sequence version the session last
// committed to (zero for a fresh session).
func (s *Session) NoiseEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.noiseEpoch
}

// SetNoiseEpoch records the committed noise draw-sequence version.
// Drivers call it with Handshake.NoiseEpoch before persisting, so a
// crash-and-restore resumes under the negotiated sampler.
func (s *Session) SetNoiseEpoch(epoch uint64) {
	s.mu.Lock()
	s.noiseEpoch = epoch
	s.mu.Unlock()
}

// Rekey replaces the session's key pairs with fresh ones and drops every
// cached secret, the roster, the taint, and the ratchet position — the
// clean re-key the handshake falls back to whenever resume is unsafe.
func (s *Session) Rekey(rand io.Reader) error {
	cipherKey, err := dh.Generate(rand)
	if err != nil {
		return err
	}
	maskKey, err := dh.Generate(rand)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.cipherKey, s.maskKey = cipherKey, maskKey
	// Clear the caches in place: the map headers are shared with concurrent
	// cachedAgreement callers (which lock mu per access), so swapping them
	// would race on the field reads.
	clear(s.mask)
	clear(s.channel)
	s.taint = false
	s.mu.Unlock()
	s.Reset()
	return nil
}

// RekeyEdges drops the cached pairwise secrets and roster entries for the
// given divergent peers while keeping this session's own key pairs and
// every other edge — the per-edge invalidation behind the handshake's
// partial resume. The divergent members advertise fresh keys in the next
// round, so only the edges touching them re-agree (their mask streams
// restart from the new secrets); the rest of the graph keeps its cached
// secrets and skips advertise. Taint and the ratchet position are left to
// the handshake, which manages them around this call.
func (s *Session) RekeyEdges(ids []uint64) {
	dropped := s.DropMembers(ids)
	s.mu.Lock()
	for _, m := range dropped {
		delete(s.mask, string(m.MaskPub))
		delete(s.channel, string(m.CipherPub))
	}
	s.mu.Unlock()
}

// ServerSession is the aggregator's amortized key-agreement state: the
// reconstructed-and-verified mask keys of dropped clients and the pairwise
// secrets derived from them, cached across the sub-rounds and rounds that
// share the session, plus the stage-0 roster for advertise skipping. Safe
// for concurrent use.
type ServerSession struct {
	// The sealed stage-0 roster with the client set it was sealed for, and
	// the server's derivation-point high-water mark, mirroring the
	// clients'.
	engine.Continuity[AdvertiseMsg]

	mu      sync.Mutex
	keys    map[string]*dh.KeyPair     // advertised mask pub → verified key
	secrets map[string]ratchetedSecret // canonical pub pair → secret

	// tainted collects the clients whose mask keys this server
	// reconstructed — or may have — during the rounds sharing the session.
	// Any taint forces the next handshake to re-key their edges: a
	// reconstructed key would let the server derive that client's future
	// pairwise masks.
	tainted map[uint64]bool
}

// NewServerSession returns an empty server session.
func NewServerSession() *ServerSession {
	return &ServerSession{
		keys:    make(map[string]*dh.KeyPair),
		secrets: make(map[string]ratchetedSecret),
	}
}

// key returns the cached reconstructed key pair advertised as pub, or nil.
// nil-receiver safe so the server can call it unconditionally.
func (s *ServerSession) key(pub []byte) *dh.KeyPair {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[string(pub)]
}

// storeKey caches a reconstructed key pair that was verified against the
// advertised public key pub.
func (s *ServerSession) storeKey(pub []byte, kp *dh.KeyPair) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.keys[string(pub)] = kp
	s.mu.Unlock()
}

// pairKey is the canonical cache key for an unordered public-key pair (the
// derived secret is symmetric in the two ends).
func pairKey(a, b []byte) string {
	if string(a) < string(b) {
		return string(a) + string(b)
	}
	return string(b) + string(a)
}

// pairSecret returns the pairwise secret between the reconstructed key kp
// and the peer public key, at the given ratchet step, agreeing on first
// use and caching by the unordered key pair.
func (s *ServerSession) pairSecret(kp *dh.KeyPair, peerPub []byte, step uint64) ([dh.SharedSize]byte, error) {
	return cachedAgreement(&s.mu, s.secrets, pairKey(kp.PublicBytes(), peerPub), step,
		func() ([dh.SharedSize]byte, error) { return kp.Agree(peerPub) })
}

// MarkTainted records clients whose sessions must not survive into another
// round on this key generation: the server reconstructed — or, for a
// scheduled dropper, may reconstruct — their mask keys. nil-receiver safe.
func (s *ServerSession) MarkTainted(ids ...uint64) {
	if s == nil || len(ids) == 0 {
		return
	}
	s.mu.Lock()
	if s.tainted == nil {
		s.tainted = make(map[uint64]bool, len(ids))
	}
	for _, id := range ids {
		s.tainted[id] = true
	}
	s.mu.Unlock()
}

// HasTaint reports whether any client's key material was (or may have
// been) reconstructed during this key generation. nil-receiver safe.
func (s *ServerSession) HasTaint() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tainted) > 0
}

// TaintedMembers returns the ids whose mask keys this server reconstructed
// (or may have) during this key generation, ascending. The handshake folds
// them into the divergent subset of a partial resume: re-keying exactly
// those members' edges removes the reconstruction hazard without burning
// the rest of the graph's cached secrets. nil-receiver safe.
func (s *ServerSession) TaintedMembers() []uint64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedIDs(s.tainted)
}

// RekeyEdges drops the cached state touching the given divergent members —
// their roster entries, any reconstructed key pairs, every pairwise secret
// with one end at a divergent member, and their taint marks — while keeping
// all other edges. This is the server half of the handshake's partial
// resume: only the divergent members' edges re-key next round, so a past
// reconstruction poisons exactly the dropper's edges instead of the whole
// key generation. nil-receiver safe.
func (s *ServerSession) RekeyEdges(ids []uint64) {
	if s == nil || len(ids) == 0 {
		return
	}
	dropped := s.DropMembers(ids)
	s.mu.Lock()
	dropPubs := make(map[string]bool, len(dropped))
	for _, m := range dropped {
		dropPubs[string(m.MaskPub)] = true
		delete(s.keys, string(m.MaskPub))
	}
	for k := range s.secrets {
		// pairKey concatenates two mask public keys; drop the pair when
		// either half belongs to a divergent member.
		if len(k) == 2*dh.PublicKeySize &&
			(dropPubs[k[:dh.PublicKeySize]] || dropPubs[k[dh.PublicKeySize:]]) {
			delete(s.secrets, k)
		}
	}
	for _, id := range ids {
		delete(s.tainted, id)
	}
	s.mu.Unlock()
}

// Rekey drops every cached key, secret, roster, taint, and the ratchet
// position: the next round collects a fresh advertise stage from scratch.
func (s *ServerSession) Rekey() {
	s.mu.Lock()
	clear(s.keys)
	clear(s.secrets)
	s.tainted = nil
	s.mu.Unlock()
	s.Reset()
}

// RoundSessions bundles the per-participant sessions a driver shares
// across the chunked sub-rounds of one logical round and, with ratcheting,
// across consecutive rounds. It also enforces derivation-point uniqueness:
// each (KeyRatchet, MaskEpoch) pair may serve at most one sub-round, since
// running two aggregations at the same point would derive byte-identical
// pairwise masks — and the server, which legitimately reconstructs
// self-mask seeds each round, could then difference the two uploads and
// recover individual update deltas.
type RoundSessions struct {
	Client map[uint64]*Session
	Server *ServerSession

	mu     sync.Mutex
	served map[[2]uint64]bool // (KeyRatchet, MaskEpoch) already used
}

// markServed records that a sub-round ran at the derivation point and
// rejects reuse of an already-served point.
func (rs *RoundSessions) markServed(ratchet, epoch uint64) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	p := [2]uint64{ratchet, epoch}
	if rs.served[p] {
		return fmt.Errorf("secagg: sessions already served ratchet %d, epoch %d — "+
			"advance MaskEpoch or KeyRatchet (identical derivation points repeat pairwise masks)",
			ratchet, epoch)
	}
	if rs.served == nil {
		rs.served = make(map[[2]uint64]bool)
	}
	rs.served[p] = true
	return nil
}

// NewRoundSessions creates one client session per id (key generation
// happens here, once per id instead of once per chunk) plus an empty
// server session.
func NewRoundSessions(ids []uint64, rand io.Reader) (*RoundSessions, error) {
	rs := &RoundSessions{
		Client: make(map[uint64]*Session, len(ids)),
		Server: NewServerSession(),
	}
	for _, id := range ids {
		s, err := NewSession(rand)
		if err != nil {
			return nil, fmt.Errorf("secagg: session for client %d: %w", id, err)
		}
		rs.Client[id] = s
	}
	return rs, nil
}

// resumable reports whether the sessions can skip the advertise stage for
// cfg under the round's drop schedule: the server session holds a roster
// sealed for exactly cfg.ClientIDs whose members are exactly the clients
// alive at the advertise stage (so a client that was dead when the roster
// was sealed but has since recovered forces a fresh advertise stage
// instead of being silently excluded forever), and every member has a
// live client session whose advertised keys match the cached entry.
func (rs *RoundSessions) resumable(cfg *Config, drops DropSchedule) bool {
	if rs == nil || rs.Server == nil {
		return false
	}
	roster := rs.Server.RosterFor(cfg.ClientIDs)
	if roster == nil {
		return false
	}
	expect := drops.Participants(cfg.ClientIDs, StageAdvertiseKeys)
	if len(roster) != len(expect) {
		return false
	}
	for i, m := range roster {
		// Both are ascending: SealAdvertise sorts the roster and ClientIDs
		// are sorted by Validate.
		if m.From != expect[i] {
			return false
		}
		sess := rs.Client[m.From]
		if sess == nil {
			return false
		}
		cipherKey, maskKey := sess.keyPairs()
		if !bytes.Equal(cipherKey.PublicBytes(), m.CipherPub) ||
			!bytes.Equal(maskKey.PublicBytes(), m.MaskPub) {
			return false
		}
	}
	return true
}
