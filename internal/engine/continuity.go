package engine

import (
	"slices"
	"sync"

	"repro/internal/transcript"
)

// Cross-round continuity. Every session — client and server, on both
// substrates — carries the same state from one round to the next: the
// sealed stage-0 roster a resumed round skips advertise on, the client
// set it was sealed for, and the key generation's derivation-point
// high-water mark. Continuity holds it once; secagg.Session/ServerSession
// and lightsecagg.Session/ServerSession embed it next to their own key
// and secret caches, and the re-key handshake (core.RunHandshakeServer,
// core.RunHandshakeClient) reads it through them.

// RosterMember is a substrate's stage-0 advertisement as the cross-round
// state sees it: its transcript roster leaf, which names the member and
// the public keys it advertised.
type RosterMember interface {
	RosterEntry() transcript.RosterEntry
}

// RosterEntries converts a roster into the transcript layer's leaf form.
func RosterEntries[M RosterMember](roster []M) []transcript.RosterEntry {
	out := make([]transcript.RosterEntry, len(roster))
	for i, m := range roster {
		out[i] = m.RosterEntry()
	}
	return out
}

// RosterHash returns the canonical digest of a sealed stage-0 roster: the
// Merkle root of the transcript layer's roster subtree
// (transcript.RosterRoot), one leaf per member in roster order. Server
// and clients cache the identical broadcast roster, so equal hashes mean
// both sides hold the same key generation for the same client set — the
// shared-state check of the re-key handshake. Because the handshake pins
// this exact root, a round transcript's roster commitment is the value
// the client already agreed to at offer time (see internal/transcript).
func RosterHash[M RosterMember](roster []M) [32]byte {
	return transcript.RosterRoot(RosterEntries(roster))
}

// Continuity is one session's cross-round state. Safe for concurrent use.
//
// The ratchet high-water mark is the lowest KeyRatchet step the key
// generation has not served yet. On secagg it guards mask separation:
// resuming at an earlier step would repeat pairwise mask streams, so the
// handshake refuses offers below it. LightSecAgg derives no masks from it
// (every mask is a fresh one-time pad); there it counts the rounds served,
// so the handshake's KeyRounds lifetime budget expires LightSecAgg key
// generations too.
type Continuity[M RosterMember] struct {
	mu        sync.Mutex
	roster    []M
	rosterIDs []uint64 // the client set the roster was sealed for
	next      uint64   // ratchet high-water mark
}

// StoreRoster caches a roster obtained through a completed advertise
// stage so a later round can skip advertise. A server session passes the
// client set the roster was sealed for; a client session passes none.
func (c *Continuity[M]) StoreRoster(roster []M, clientIDs ...uint64) {
	r := append([]M(nil), roster...)
	ids := append([]uint64(nil), clientIDs...)
	c.mu.Lock()
	c.roster, c.rosterIDs = r, ids
	c.mu.Unlock()
}

// Roster returns the cached roster, or nil when none is stored.
func (c *Continuity[M]) Roster() []M {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roster
}

// RosterFor returns the cached roster if it was sealed for exactly the
// given client set, else nil.
func (c *Continuity[M]) RosterFor(clientIDs []uint64) []M {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.roster == nil || !slices.Equal(c.rosterIDs, clientIDs) {
		return nil
	}
	return c.roster
}

// StateHash returns the digest of the roster the session could resume on,
// with ok=false when no completed advertise stage was cached: the client's
// half of the handshake's shared-state check.
func (c *Continuity[M]) StateHash() ([32]byte, bool) {
	roster := c.Roster()
	if roster == nil {
		return [32]byte{}, false
	}
	return RosterHash(roster), true
}

// StateHashFor returns the digest of the roster the session could resume
// a round over clientIDs on, with ok=false when none is cached for that
// client set: the server's half of the check. The roster need not cover
// every client: the members it misses (dead or unheard at the sealing
// advertise stage) are reported by MissingMembers and folded into the
// handshake's divergent subset, so they re-advertise under a partial
// resume instead of forcing a full re-key or being excluded forever.
func (c *Continuity[M]) StateHashFor(clientIDs []uint64) ([32]byte, bool) {
	roster := c.RosterFor(clientIDs)
	if len(roster) == 0 {
		return [32]byte{}, false
	}
	return RosterHash(roster), true
}

// MissingMembers returns the subset of clientIDs the cached roster (for
// exactly that client set) does not cover. These members hold no
// advertised keys in the current generation, so a resumed round treats
// them as divergent. Returns nil when no roster is cached at all (a full
// re-key applies then anyway).
func (c *Continuity[M]) MissingMembers(clientIDs []uint64) []uint64 {
	roster := c.RosterFor(clientIDs)
	if roster == nil {
		return nil
	}
	have := make(map[uint64]bool, len(roster))
	for _, m := range roster {
		have[m.RosterEntry().ID] = true
	}
	var out []uint64
	for _, id := range clientIDs {
		if !have[id] {
			out = append(out, id)
		}
	}
	return out
}

// NextRatchet returns the lowest KeyRatchet step this key generation has
// not served yet.
func (c *Continuity[M]) NextRatchet() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next
}

// MarkRatchetUsed burns the derivation point at step: the session will
// refuse to resume at or below it. Burning happens at handshake commit
// time, before the round runs, so an aborted round still consumes its
// step.
func (c *Continuity[M]) MarkRatchetUsed(step uint64) {
	c.mu.Lock()
	if step >= c.next {
		c.next = step + 1
	}
	c.mu.Unlock()
}

// DropMembers removes the given divergent members from the cached roster
// and returns their entries, whose keys the session then evicts from its
// own caches: the roster half of the handshake's partial resume. The
// divergent members re-advertise in the coming round.
func (c *Continuity[M]) DropMembers(ids []uint64) (dropped []M) {
	if len(ids) == 0 {
		return nil
	}
	drop := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := make([]M, 0, len(c.roster))
	for _, m := range c.roster {
		if drop[m.RosterEntry().ID] {
			dropped = append(dropped, m)
		} else {
			kept = append(kept, m)
		}
	}
	// Fresh slice, not in-place: Roster hands out the cached slice and a
	// concurrent holder must keep seeing the roster it was given.
	c.roster = kept
	return dropped
}

// Reset drops the roster, its client set and the ratchet position: the
// continuity half of a clean re-key.
func (c *Continuity[M]) Reset() {
	c.Restore(nil, nil, 0)
}

// Snapshot returns the state a session persists: the roster, the client
// set it was sealed for, and the ratchet high-water mark.
func (c *Continuity[M]) Snapshot() (roster []M, clientIDs []uint64, next uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roster, c.rosterIDs, c.next
}

// Restore installs state read back from a Snapshot.
func (c *Continuity[M]) Restore(roster []M, clientIDs []uint64, next uint64) {
	c.mu.Lock()
	c.roster, c.rosterIDs, c.next = roster, clientIDs, next
	c.mu.Unlock()
}
