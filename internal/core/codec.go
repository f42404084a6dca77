package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/field"
	"repro/internal/secagg"
	"repro/internal/shamir"
	"repro/internal/transport"
)

// Binary payload codec for the hot wire messages.
//
// Gob's reflective encoding costs milliseconds and megabytes of garbage per
// 100k-dim masked input; the messages that dominate the round's byte and
// message volume use the hand-rolled length-prefixed little-endian layouts
// below instead:
//
//   - the stage-2 masked input and the final result broadcast (dim-length
//     vectors — the round's dominant payload), and
//   - the stage-1 encrypted share bundles (the n² small messages per
//     round: every client uploads one ciphertext per neighbor, and the
//     server relays each recipient's list back down). These were the last
//     reflective codec on the round path.
//
// The remaining low-rate control messages (key advertisements, survivor
// sets, unmask shares) stay on gob: their cost is irrelevant and gob's
// tolerance of structural evolution is worth keeping there.
//
// Layout (all integers little-endian):
//
//	masked input: [magic][tagMaskedInput][From:8][n:4][Y: n×8]
//	result:       [magic][tagResult]
//	              [n:4][Sum: n×8] [n:4][Survivors: n×8] [n:4][Dropped: n×8]
//	              [n:4][RemovedComponents: n×8, as uint64]
//	share msgs:   [magic][tagShareMsgs][n:4]
//	              n × ([From:8][To:8][ctLen:4][Ciphertext: ctLen bytes])
//	unmask:       [magic][tagUnmask][From:8]
//	              [n:4] n × ([v:8][NumKeyChunks × (X:8)(Y:8)])   mask-key shares
//	              [n:4] n × ([v:8][X:8][Y:8])                    self-seed shares
//	              [n:4] n × ([k:8][g:8])                         own noise seeds
//	              (each section sorted by key; a zero count decodes as nil)
//
// The magic byte distinguishes the binary codec from a gob stream (gob
// payloads begin with a length varint; protocol payloads are never empty),
// so a mixed-version peer fails loudly rather than mis-decoding.
const (
	codecMagic     = 0xD0
	tagMaskedInput = 0x01
	tagResult      = 0x02
	tagShareMsgs   = 0x03
	tagUnmask      = 0x04
)

func appendUint32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

// encodeMaskedInput encodes the stage-2 masked input message.
func encodeMaskedInput(m secagg.MaskedInputMsg) ([]byte, error) {
	out := make([]byte, 0, 2+8+4+8*len(m.Y))
	out = append(out, codecMagic, tagMaskedInput)
	var from [8]byte
	binary.LittleEndian.PutUint64(from[:], m.From)
	out = append(out, from[:]...)
	return transport.AppendSlab(out, m.Y)
}

// decodeMaskedInput decodes the stage-2 masked input message.
func decodeMaskedInput(p []byte) (secagg.MaskedInputMsg, error) {
	if len(p) < 10 || p[0] != codecMagic || p[1] != tagMaskedInput {
		return secagg.MaskedInputMsg{}, fmt.Errorf("core: not a binary masked-input payload")
	}
	m := secagg.MaskedInputMsg{From: binary.LittleEndian.Uint64(p[2:])}
	y, rest, err := transport.DecodeSlab(p[10:])
	if err != nil {
		return secagg.MaskedInputMsg{}, fmt.Errorf("core: masked input: %w", err)
	}
	if len(rest) != 0 {
		return secagg.MaskedInputMsg{}, fmt.Errorf("core: masked input: %d trailing bytes", len(rest))
	}
	m.Y = y
	return m, nil
}

// maxShareMsgs caps the declared message count of a share-bundle list and
// maxShareCtBytes the declared length of one ciphertext, so hostile
// prefixes cannot force huge allocations. Both sit far above protocol
// reality (n−1 messages per list; a ciphertext carries a few Shamir
// shares plus AEAD overhead) while staying within the transport frame cap.
const (
	maxShareMsgs    = 1 << 20
	maxShareCtBytes = 1 << 24
)

// encodeShareMsgs encodes a stage-1 encrypted-share list (uplink: one
// sender's ciphertexts; downlink: one recipient's delivery).
func encodeShareMsgs(msgs []secagg.EncryptedShareMsg) ([]byte, error) {
	if len(msgs) > maxShareMsgs {
		return nil, fmt.Errorf("core: share list of %d messages exceeds wire cap", len(msgs))
	}
	size := 2 + 4
	for _, m := range msgs {
		size += 8 + 8 + 4 + len(m.Ciphertext)
	}
	out := make([]byte, 0, size)
	out = append(out, codecMagic, tagShareMsgs)
	out = appendUint32(out, uint32(len(msgs)))
	var b [8]byte
	for _, m := range msgs {
		if len(m.Ciphertext) > maxShareCtBytes {
			return nil, fmt.Errorf("core: share ciphertext of %d bytes exceeds wire cap", len(m.Ciphertext))
		}
		binary.LittleEndian.PutUint64(b[:], m.From)
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint64(b[:], m.To)
		out = append(out, b[:]...)
		out = appendUint32(out, uint32(len(m.Ciphertext)))
		out = append(out, m.Ciphertext...)
	}
	return out, nil
}

// decodeShareMsgs decodes a stage-1 encrypted-share list.
func decodeShareMsgs(p []byte) ([]secagg.EncryptedShareMsg, error) {
	if len(p) < 6 || p[0] != codecMagic || p[1] != tagShareMsgs {
		return nil, fmt.Errorf("core: not a binary share-list payload")
	}
	n := int(binary.LittleEndian.Uint32(p[2:]))
	if n > maxShareMsgs {
		return nil, fmt.Errorf("core: declared share list of %d messages exceeds wire cap", n)
	}
	rest := p[6:]
	// Each message costs at least its 20-byte header, so a count prefix
	// the remaining bytes cannot carry is rejected before the slice
	// allocation, not after — a 6-byte frame must not reserve memory for
	// 2^20 messages.
	if n > len(rest)/20 {
		return nil, fmt.Errorf("core: declared share list of %d messages exceeds payload", n)
	}
	var msgs []secagg.EncryptedShareMsg
	if n > 0 {
		msgs = make([]secagg.EncryptedShareMsg, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(rest) < 20 {
			return nil, fmt.Errorf("core: share message %d header truncated", i)
		}
		m := secagg.EncryptedShareMsg{
			From: binary.LittleEndian.Uint64(rest),
			To:   binary.LittleEndian.Uint64(rest[8:]),
		}
		ctLen := int(binary.LittleEndian.Uint32(rest[16:]))
		if ctLen > maxShareCtBytes {
			return nil, fmt.Errorf("core: declared ciphertext of %d bytes exceeds wire cap", ctLen)
		}
		rest = rest[20:]
		if len(rest) < ctLen {
			return nil, fmt.Errorf("core: share message %d ciphertext truncated", i)
		}
		if ctLen > 0 {
			m.Ciphertext = append([]byte(nil), rest[:ctLen]...)
		}
		rest = rest[ctLen:]
		msgs = append(msgs, m)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: share list: %d trailing bytes", len(rest))
	}
	return msgs, nil
}

// maxUnmaskEntries caps the per-section entry counts of an unmask payload:
// protocol reality is at most n entries per section (one share per peer,
// one seed per noise component), so 2^20 sits far above any real round
// while keeping a hostile count prefix from forcing a huge allocation.
const maxUnmaskEntries = 1 << 20

// elementsPerMaskBundle is the word count of one mask-key share bundle on
// the wire: NumKeyChunks (X, Y) pairs.
const elementsPerMaskBundle = 2 * secagg.NumKeyChunks

func appendElement(dst []byte, e field.Element) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], e.Uint64())
	return append(dst, b[:]...)
}

// encodeUnmask encodes the stage-4 unmask response — the per-survivor
// share maps that were the last high-volume gob payload on the wire path.
// Map sections are emitted in ascending key order so the encoding is
// deterministic.
func encodeUnmask(m secagg.UnmaskMsg) ([]byte, error) {
	if len(m.MaskKeyShares) > maxUnmaskEntries || len(m.SelfSeedShares) > maxUnmaskEntries ||
		len(m.OwnNoiseSeeds) > maxUnmaskEntries {
		return nil, fmt.Errorf("core: unmask section exceeds wire cap")
	}
	size := 2 + 8 +
		4 + len(m.MaskKeyShares)*(8+8*elementsPerMaskBundle) +
		4 + len(m.SelfSeedShares)*(8+16) +
		4 + len(m.OwnNoiseSeeds)*16
	out := make([]byte, 0, size)
	out = append(out, codecMagic, tagUnmask)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], m.From)
	out = append(out, b[:]...)

	out = appendUint32(out, uint32(len(m.MaskKeyShares)))
	for _, v := range sortedMapKeys(m.MaskKeyShares) {
		binary.LittleEndian.PutUint64(b[:], v)
		out = append(out, b[:]...)
		bundle := m.MaskKeyShares[v]
		for _, sh := range bundle {
			out = appendElement(out, sh.X)
			out = appendElement(out, sh.Y)
		}
	}
	out = appendUint32(out, uint32(len(m.SelfSeedShares)))
	for _, v := range sortedMapKeys(m.SelfSeedShares) {
		binary.LittleEndian.PutUint64(b[:], v)
		out = append(out, b[:]...)
		sh := m.SelfSeedShares[v]
		out = appendElement(out, sh.X)
		out = appendElement(out, sh.Y)
	}
	out = appendUint32(out, uint32(len(m.OwnNoiseSeeds)))
	ks := make([]int, 0, len(m.OwnNoiseSeeds))
	for k := range m.OwnNoiseSeeds {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		if k < 0 {
			return nil, fmt.Errorf("core: negative noise component %d", k)
		}
		binary.LittleEndian.PutUint64(b[:], uint64(k))
		out = append(out, b[:]...)
		out = appendElement(out, m.OwnNoiseSeeds[k])
	}
	return out, nil
}

// unmaskSectionHeader reads one section's count prefix and rejects counts
// the remaining payload cannot carry (entrySize is the minimum bytes per
// entry), so a lying prefix fails before the map allocation.
func unmaskSectionHeader(src []byte, entrySize int) (int, []byte, error) {
	if len(src) < 4 {
		return 0, nil, fmt.Errorf("core: unmask section header truncated")
	}
	n := int(binary.LittleEndian.Uint32(src))
	rest := src[4:]
	if n > maxUnmaskEntries {
		return 0, nil, fmt.Errorf("core: declared unmask section of %d entries exceeds wire cap", n)
	}
	if n > 0 && n > len(rest)/entrySize {
		return 0, nil, fmt.Errorf("core: declared unmask section of %d entries exceeds payload", n)
	}
	return n, rest, nil
}

func decodeElement(src []byte) (field.Element, []byte) {
	return field.New(binary.LittleEndian.Uint64(src)), src[8:]
}

// decodeUnmask decodes a stage-4 unmask response.
func decodeUnmask(p []byte) (secagg.UnmaskMsg, error) {
	if len(p) < 10 || p[0] != codecMagic || p[1] != tagUnmask {
		return secagg.UnmaskMsg{}, fmt.Errorf("core: not a binary unmask payload")
	}
	m := secagg.UnmaskMsg{From: binary.LittleEndian.Uint64(p[2:])}
	rest := p[10:]

	n, rest, err := unmaskSectionHeader(rest, 8+8*elementsPerMaskBundle)
	if err != nil {
		return secagg.UnmaskMsg{}, err
	}
	if n > 0 {
		m.MaskKeyShares = make(map[uint64][secagg.NumKeyChunks]shamir.Share, n)
		for i := 0; i < n; i++ {
			v := binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
			if _, dup := m.MaskKeyShares[v]; dup {
				return secagg.UnmaskMsg{}, fmt.Errorf("core: duplicate mask-key share target %d", v)
			}
			var bundle [secagg.NumKeyChunks]shamir.Share
			for c := range bundle {
				bundle[c].X, rest = decodeElement(rest)
				bundle[c].Y, rest = decodeElement(rest)
			}
			m.MaskKeyShares[v] = bundle
		}
	}

	n, rest, err = unmaskSectionHeader(rest, 8+16)
	if err != nil {
		return secagg.UnmaskMsg{}, err
	}
	if n > 0 {
		m.SelfSeedShares = make(map[uint64]shamir.Share, n)
		for i := 0; i < n; i++ {
			v := binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
			if _, dup := m.SelfSeedShares[v]; dup {
				return secagg.UnmaskMsg{}, fmt.Errorf("core: duplicate self-seed share target %d", v)
			}
			var sh shamir.Share
			sh.X, rest = decodeElement(rest)
			sh.Y, rest = decodeElement(rest)
			m.SelfSeedShares[v] = sh
		}
	}

	n, rest, err = unmaskSectionHeader(rest, 16)
	if err != nil {
		return secagg.UnmaskMsg{}, err
	}
	if n > 0 {
		m.OwnNoiseSeeds = make(map[int]field.Element, n)
		for i := 0; i < n; i++ {
			k64 := binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
			if k64 > math.MaxInt32 {
				return secagg.UnmaskMsg{}, fmt.Errorf("core: noise component %d out of range", k64)
			}
			k := int(k64)
			if _, dup := m.OwnNoiseSeeds[k]; dup {
				return secagg.UnmaskMsg{}, fmt.Errorf("core: duplicate noise component %d", k)
			}
			m.OwnNoiseSeeds[k], rest = decodeElement(rest)
		}
	}
	if len(rest) != 0 {
		return secagg.UnmaskMsg{}, fmt.Errorf("core: unmask: %d trailing bytes", len(rest))
	}
	return m, nil
}

func sortedMapKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// encodeResult encodes the final result broadcast.
func encodeResult(r secagg.Result) ([]byte, error) {
	out := make([]byte, 0, 2+16+8*(len(r.Sum)+len(r.Survivors)+len(r.Dropped)+len(r.RemovedComponents)))
	out = append(out, codecMagic, tagResult)
	var err error
	for _, slab := range [][]uint64{r.Sum, r.Survivors, r.Dropped} {
		if out, err = transport.AppendSlab(out, slab); err != nil {
			return nil, err
		}
	}
	ks := make([]uint64, len(r.RemovedComponents))
	for i, k := range r.RemovedComponents {
		ks[i] = uint64(k)
	}
	return transport.AppendSlab(out, ks)
}

// decodeResult decodes the final result broadcast.
func decodeResult(p []byte) (secagg.Result, error) {
	if len(p) < 2 || p[0] != codecMagic || p[1] != tagResult {
		return secagg.Result{}, fmt.Errorf("core: not a binary result payload")
	}
	rest := p[2:]
	var slabs [4][]uint64
	var err error
	for i := range slabs {
		if slabs[i], rest, err = transport.DecodeSlab(rest); err != nil {
			return secagg.Result{}, fmt.Errorf("core: result: %w", err)
		}
	}
	if len(rest) != 0 {
		return secagg.Result{}, fmt.Errorf("core: result: %d trailing bytes", len(rest))
	}
	r := secagg.Result{Sum: slabs[0], Survivors: slabs[1], Dropped: slabs[2]}
	if len(slabs[3]) > 0 {
		r.RemovedComponents = make([]int, len(slabs[3]))
		for i, k := range slabs[3] {
			r.RemovedComponents[i] = int(k)
		}
	}
	return r, nil
}
