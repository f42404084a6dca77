package lightsecagg

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/dh"
	"repro/internal/transport"
)

// Versioned binary persistence for client sessions, mirroring
// secagg/persist.go. Serialized: the X25519 channel private scalar, the
// cached pairwise channel secrets, and the cached stage-0 roster. Never
// serialized: the cached AES-GCM instances (rebuilt from the secrets on
// first use), masks (LightSecAgg's masks are fresh uniform one-time pads
// drawn per round and consumed immediately — there is nothing to resume),
// coded shares, and the encoding matrix (a geometry-only cache rebuilt on
// first use). The plaintext holds a raw private key; wrap it with
// sessionstore.Store before it touches disk.
const (
	persistMagic   = 0xDA
	persistTag     = 0x4C // 'L': lightsecagg client session
	persistVersion = 1

	maxPersistEntries = 1 << 20
	maxPersistBlob    = 1 << 16
)

// MarshalBinary serializes the session's amortization state.
func (s *Session) MarshalBinary() ([]byte, error) {
	roster, _, next := s.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(roster) > maxPersistEntries || len(s.channel) > maxPersistEntries {
		return nil, fmt.Errorf("lightsecagg: session exceeds persist caps")
	}
	out := []byte{persistMagic, persistTag, persistVersion}
	priv := s.key.PrivateBytes()
	out = append(out, priv[:]...)

	var cnt [4]byte
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], next)
	out = append(out, b[:]...)
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(roster)))
	out = append(out, cnt[:]...)
	for _, m := range roster {
		binary.LittleEndian.PutUint64(b[:], m.From)
		out = append(out, b[:]...)
		out = transport.AppendBlob(out, m.Pub)
	}

	binary.LittleEndian.PutUint32(cnt[:], uint32(len(s.channel)))
	out = append(out, cnt[:]...)
	keys := make([]string, 0, len(s.channel))
	for k := range s.channel {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic encoding
	for _, k := range keys {
		out = transport.AppendBlob(out, []byte(k))
		sec := s.channel[k]
		out = append(out, sec[:]...)
	}
	return out, nil
}

// UnmarshalSession rebuilds a session from MarshalBinary output. The
// restored session resumes with zero key generations and zero agreements.
func UnmarshalSession(p []byte) (*Session, error) {
	if len(p) < 3 || p[0] != persistMagic || p[1] != persistTag {
		return nil, fmt.Errorf("lightsecagg: not a persisted session")
	}
	if p[2] != persistVersion {
		return nil, fmt.Errorf("lightsecagg: persisted session version %d, want %d", p[2], persistVersion)
	}
	src := p[3:]
	if len(src) < 32+8 {
		return nil, fmt.Errorf("lightsecagg: persisted session truncated")
	}
	var priv [32]byte
	copy(priv[:], src)
	src = src[32:]
	key, err := dh.FromPrivateBytes(priv)
	if err != nil {
		return nil, err
	}
	s := newSession(key)
	next := binary.LittleEndian.Uint64(src)
	src = src[8:]

	if len(src) < 4 {
		return nil, fmt.Errorf("lightsecagg: persisted roster header truncated")
	}
	n := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	if n > maxPersistEntries {
		return nil, fmt.Errorf("lightsecagg: persisted roster of %d entries exceeds cap", n)
	}
	var roster []AdvertiseMsg
	if n > 0 {
		if n > len(src)/(8+2) {
			return nil, fmt.Errorf("lightsecagg: persisted roster of %d entries exceeds payload", n)
		}
		roster = make([]AdvertiseMsg, 0, n)
		for i := 0; i < n; i++ {
			if len(src) < 8 {
				return nil, fmt.Errorf("lightsecagg: persisted roster entry %d truncated", i)
			}
			m := AdvertiseMsg{From: binary.LittleEndian.Uint64(src)}
			src = src[8:]
			if m.Pub, src, err = transport.DecodeBlob(src, maxPersistBlob); err != nil {
				return nil, err
			}
			roster = append(roster, m)
		}
	}
	s.Restore(roster, nil, next)

	if len(src) < 4 {
		return nil, fmt.Errorf("lightsecagg: persisted secret section header truncated")
	}
	n = int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	if n > maxPersistEntries {
		return nil, fmt.Errorf("lightsecagg: persisted secret section of %d entries exceeds cap", n)
	}
	if n > len(src)/(2+dh.SharedSize) {
		return nil, fmt.Errorf("lightsecagg: persisted secret section of %d entries exceeds payload", n)
	}
	for i := 0; i < n; i++ {
		pub, rest, err := transport.DecodeBlob(src, maxPersistBlob)
		if err != nil {
			return nil, err
		}
		src = rest
		if len(src) < dh.SharedSize {
			return nil, fmt.Errorf("lightsecagg: persisted secret %d truncated", i)
		}
		var sec [dh.SharedSize]byte
		copy(sec[:], src)
		src = src[dh.SharedSize:]
		if _, dup := s.channel[string(pub)]; dup {
			return nil, fmt.Errorf("lightsecagg: duplicate persisted secret entry")
		}
		s.channel[string(pub)] = sec
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("lightsecagg: persisted session: %d trailing bytes", len(src))
	}
	return s, nil
}
