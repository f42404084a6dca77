package secagg

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/transport"
)

// Versioned binary persistence for *server* sessions, sharing the client
// persistence idiom (persist.go) and envelope magic.
//
// What is serialized — only the state that makes a restarted aggregator
// resume instead of forcing a fleet re-key:
//
//   - the continuity state: derivation-point high-water mark and the
//     tainted-client set,
//   - the cached stage-0 roster and the client set it was sealed for
//     (so StateHashFor answers and advertise skipping still works).
//
// What is deliberately NEVER serialized, unlike the client session:
//
//   - reconstructed mask key pairs and the pairwise secrets derived from
//     them. A client's persisted private keys are its own; a server blob
//     holding *other parties'* reconstructed keys would turn one store
//     leak into the mask keys of every client the server ever unmasked.
//     The information is also redundant: any key the server legitimately
//     reconstructed came from survivor shares, and the taint set already
//     records that it happened.
//
// The restored session therefore has empty key/secret caches — the server
// re-agrees on demand — and keeps its taint: at the next handshake the
// tainted members partition as divergent, so a restart downgrades to
// per-edge re-key for exactly the edges that need it instead of a full
// fleet re-key. The blob still names the roster's public keys, so wrap it
// with sessionstore.Store like the client blobs.
const (
	persistServerTag     = 0x56 // 'V': secagg server session
	persistServerVersion = 1
)

// MarshalBinary serializes the server session's continuity state (see the
// layout note above; reconstructed keys and pairwise secrets are
// deliberately excluded).
func (s *ServerSession) MarshalBinary() ([]byte, error) {
	roster, rosterIDs, next := s.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(roster) > maxPersistEntries || len(rosterIDs) > maxPersistEntries ||
		len(s.tainted) > maxPersistEntries {
		return nil, fmt.Errorf("secagg: server session exceeds persist caps")
	}
	out := []byte{persistMagic, persistServerTag, persistServerVersion}
	out = binary.LittleEndian.AppendUint64(out, next)
	out = appendPersistRoster(out, roster)
	out, _ = transport.AppendSlab(out, rosterIDs) // within the caps checked above

	tainted := make([]uint64, 0, len(s.tainted))
	for id := range s.tainted {
		tainted = append(tainted, id)
	}
	sort.Slice(tainted, func(i, j int) bool { return tainted[i] < tainted[j] }) // deterministic encoding
	return transport.AppendSlab(out, tainted)
}

// UnmarshalServerSession rebuilds a server session from MarshalBinary
// output. The key and secret caches come back empty (re-agreed on
// demand); the taint set comes back intact, so the next handshake
// partitions the tainted members as divergent and re-keys exactly those
// edges — the restart downgrade ARCHITECTURE.md describes.
func UnmarshalServerSession(p []byte) (*ServerSession, error) {
	if len(p) < 3 || p[0] != persistMagic || p[1] != persistServerTag {
		return nil, fmt.Errorf("secagg: not a persisted server session")
	}
	if v := p[2]; v < 1 || v > persistServerVersion {
		return nil, fmt.Errorf("secagg: persisted server session version %d, want <= %d", v, persistServerVersion)
	}
	src := p[3:]
	if len(src) < 8+4 {
		return nil, fmt.Errorf("secagg: persisted server session truncated")
	}
	s := NewServerSession()
	next := binary.LittleEndian.Uint64(src)
	roster, src, err := decodePersistRoster(src[8:])
	if err != nil {
		return nil, err
	}
	var rosterIDs, tainted []uint64
	if rosterIDs, src, err = transport.DecodeSlab(src); err != nil {
		return nil, err
	}
	if tainted, src, err = transport.DecodeSlab(src); err != nil {
		return nil, err
	}
	if len(rosterIDs) > maxPersistEntries || len(tainted) > maxPersistEntries {
		return nil, fmt.Errorf("secagg: persisted server session exceeds persist caps")
	}
	s.Restore(roster, rosterIDs, next)
	if len(tainted) > 0 {
		s.tainted = make(map[uint64]bool, len(tainted))
		for _, id := range tainted {
			s.tainted[id] = true
		}
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("secagg: persisted server session: %d trailing bytes", len(src))
	}
	return s, nil
}
