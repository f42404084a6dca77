package combine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/ring"
	"repro/internal/transport"
)

// Binary codec for the combiner frame family, following the core/codec.go
// conventions: magic/tag/version prefix, little-endian length-prefixed
// sections, count-vs-payload validation before any allocation.
//
// Layout (all integers little-endian):
//
//	hello:   [magic][tagHello][ver][Round:8][Shard:8]
//	partial: [magic][tagPartial][ver][Round:8][Shard:8][Bits:1]
//	         [n:4][Sum: n×8] [n:4][Survivors: n×8] [n:4][Dropped: n×8]
//	         [n:4][RemovedComponents: n×8, as uint64]
//	         v2+: [hasTranscript:1][TranscriptRoot:32, when set]
//	report:  [magic][tagReport][ver][Round:8][Bits:1][flags:1]
//	         [n:4][Sum: n×8] [n:4][Contributing: n×8] [n:4][Missing: n×8]
//	         [n:4][Survivors: n×8] [n:4][Dropped: n×8]
//	         [n:4] n × ([shard:8][k:4][components: k×8])
//	         v2+: [n:4] n × ([shard:8][staleRound:8])
//	         (flags bit 0: Degraded)
//
// The magic byte (0xDC) keeps the family disjoint from the core codec
// (0xD0), the persisted sessions (0xDA) and the binary share bundles
// (0xDB), so a misrouted payload fails loudly. The version byte gates
// structural evolution the way persistVersion does for sessions: decoders
// accept versions ≤ theirs and reject the rest, so a new-layout combiner
// never silently mis-reads an old shard's partial or vice versa. Version
// 2 (this repo's verifiable-transcript PR) appends the shard transcript
// root to partials and the stale-round accounting to reports; v1 payloads
// still decode, with both absent.
const (
	combineMagic   = 0xDC
	tagHello       = 0x01
	tagPartial     = 0x02
	tagReport      = 0x03
	combineVersion = 2
)

func appendHeader(dst []byte, tag byte, round uint64) []byte {
	dst = append(dst, combineMagic, tag, combineVersion)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], round)
	return append(dst, b[:]...)
}

// decodeHeader validates magic/tag/version and returns (round, version,
// rest) — the version steers the optional v2+ trailing sections.
func decodeHeader(p []byte, tag byte, what string) (uint64, byte, []byte, error) {
	if len(p) < 11 || p[0] != combineMagic || p[1] != tag {
		return 0, 0, nil, fmt.Errorf("combine: not a %s payload", what)
	}
	v := p[2]
	if v < 1 || v > combineVersion {
		return 0, 0, nil, fmt.Errorf("combine: %s version %d, want <= %d", what, v, combineVersion)
	}
	return binary.LittleEndian.Uint64(p[3:]), v, p[11:], nil
}

// EncodeHello encodes the shard-online announcement.
func EncodeHello(round, shard uint64) []byte {
	out := appendHeader(make([]byte, 0, 19), tagHello, round)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], shard)
	return append(out, b[:]...)
}

// DecodeHello decodes a shard-online announcement, returning (round, shard).
func DecodeHello(p []byte) (uint64, uint64, error) {
	round, _, rest, err := decodeHeader(p, tagHello, "shard hello")
	if err != nil {
		return 0, 0, err
	}
	if len(rest) != 8 {
		return 0, 0, fmt.Errorf("combine: shard hello body is %d bytes, want 8", len(rest))
	}
	return round, binary.LittleEndian.Uint64(rest), nil
}

func intsToUint64s(ks []int) []uint64 {
	out := make([]uint64, len(ks))
	for i, k := range ks {
		out[i] = uint64(k)
	}
	return out
}

func uint64sToInts(xs []uint64) []int {
	if len(xs) == 0 {
		return nil
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

// EncodePartial encodes one shard partial.
func EncodePartial(p Partial) ([]byte, error) {
	out := appendHeader(make([]byte, 0, 24+8*(p.Sum.Len()+len(p.Survivors)+len(p.Dropped))), tagPartial, p.Round)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], p.Shard)
	out = append(out, b[:]...)
	out = append(out, byte(p.Sum.Bits))
	var err error
	if out, err = transport.AppendSlab(out, p.Sum.Data); err != nil {
		return nil, err
	}
	if out, err = transport.AppendSlab(out, p.Survivors); err != nil {
		return nil, err
	}
	if out, err = transport.AppendSlab(out, p.Dropped); err != nil {
		return nil, err
	}
	if out, err = transport.AppendSlab(out, intsToUint64s(p.RemovedComponents)); err != nil {
		return nil, err
	}
	if p.HasTranscript {
		out = append(out, 1)
		out = append(out, p.TranscriptRoot[:]...)
	} else {
		out = append(out, 0)
	}
	return out, nil
}

// DecodePartial decodes one shard partial.
func DecodePartial(p []byte) (Partial, error) {
	round, ver, rest, err := decodeHeader(p, tagPartial, "shard partial")
	if err != nil {
		return Partial{}, err
	}
	if len(rest) < 9 {
		return Partial{}, fmt.Errorf("combine: shard partial truncated")
	}
	out := Partial{Round: round, Shard: binary.LittleEndian.Uint64(rest)}
	bits := rest[8]
	if bits < 1 || bits > 63 {
		return Partial{}, fmt.Errorf("combine: shard partial ring width %d out of [1,63]", bits)
	}
	rest = rest[9:]
	var sum []uint64
	if sum, rest, err = transport.DecodeSlab(rest); err != nil {
		return Partial{}, fmt.Errorf("combine: shard partial sum: %w", err)
	}
	out.Sum = ring.Vector{Bits: uint(bits), Data: sum}
	if out.Survivors, rest, err = transport.DecodeSlab(rest); err != nil {
		return Partial{}, fmt.Errorf("combine: shard partial survivors: %w", err)
	}
	if out.Dropped, rest, err = transport.DecodeSlab(rest); err != nil {
		return Partial{}, fmt.Errorf("combine: shard partial dropped: %w", err)
	}
	var ks []uint64
	if ks, rest, err = transport.DecodeSlab(rest); err != nil {
		return Partial{}, fmt.Errorf("combine: shard partial removed components: %w", err)
	}
	out.RemovedComponents = uint64sToInts(ks)
	if ver >= 2 {
		if len(rest) < 1 {
			return Partial{}, fmt.Errorf("combine: shard partial transcript flag truncated")
		}
		switch rest[0] {
		case 0:
			rest = rest[1:]
		case 1:
			if len(rest) < 33 {
				return Partial{}, fmt.Errorf("combine: shard partial transcript root truncated")
			}
			out.HasTranscript = true
			copy(out.TranscriptRoot[:], rest[1:33])
			rest = rest[33:]
		default:
			return Partial{}, fmt.Errorf("combine: shard partial transcript flag %d", rest[0])
		}
	}
	if len(rest) != 0 {
		return Partial{}, fmt.Errorf("combine: shard partial: %d trailing bytes", len(rest))
	}
	return out, nil
}

// EncodeReport encodes the combiner's round report.
func EncodeReport(r *RoundReport) ([]byte, error) {
	out := appendHeader(make([]byte, 0, 32+8*r.Sum.Len()), tagReport, r.Round)
	out = append(out, byte(r.Sum.Bits))
	var flags byte
	if r.Degraded {
		flags |= 1
	}
	out = append(out, flags)
	var err error
	for _, xs := range [][]uint64{r.Sum.Data, r.Contributing, r.Missing, r.Survivors, r.Dropped} {
		if out, err = transport.AppendSlab(out, xs); err != nil {
			return nil, err
		}
	}
	if len(r.RemovedComponents) > transport.MaxSlabWords {
		return nil, fmt.Errorf("combine: %d removal entries exceed wire cap", len(r.RemovedComponents))
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(r.RemovedComponents)))
	out = append(out, cnt[:]...)
	shards := make([]uint64, 0, len(r.RemovedComponents))
	for shard := range r.RemovedComponents {
		shards = append(shards, shard)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] }) // deterministic encoding
	for _, shard := range shards {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], shard)
		out = append(out, b[:]...)
		if out, err = transport.AppendSlab(out, intsToUint64s(r.RemovedComponents[shard])); err != nil {
			return nil, err
		}
	}
	if len(r.StaleRounds) > transport.MaxSlabWords {
		return nil, fmt.Errorf("combine: %d stale entries exceed wire cap", len(r.StaleRounds))
	}
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(r.StaleRounds)))
	out = append(out, cnt[:]...)
	staleShards := make([]uint64, 0, len(r.StaleRounds))
	for shard := range r.StaleRounds {
		staleShards = append(staleShards, shard)
	}
	sort.Slice(staleShards, func(i, j int) bool { return staleShards[i] < staleShards[j] })
	for _, shard := range staleShards {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], shard)
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint64(b[:], r.StaleRounds[shard])
		out = append(out, b[:]...)
	}
	return out, nil
}

// DecodeReport decodes a combiner round report.
func DecodeReport(p []byte) (*RoundReport, error) {
	round, ver, rest, err := decodeHeader(p, tagReport, "round report")
	if err != nil {
		return nil, err
	}
	if len(rest) < 2 {
		return nil, fmt.Errorf("combine: round report truncated")
	}
	r := &RoundReport{Round: round, Degraded: rest[1]&1 != 0}
	bits := rest[0]
	if bits < 1 || bits > 63 {
		return nil, fmt.Errorf("combine: round report ring width %d out of [1,63]", bits)
	}
	rest = rest[2:]
	var sum []uint64
	if sum, rest, err = transport.DecodeSlab(rest); err != nil {
		return nil, fmt.Errorf("combine: round report sum: %w", err)
	}
	r.Sum = ring.Vector{Bits: uint(bits), Data: sum}
	for _, dst := range []*[]uint64{&r.Contributing, &r.Missing, &r.Survivors, &r.Dropped} {
		if *dst, rest, err = transport.DecodeSlab(rest); err != nil {
			return nil, fmt.Errorf("combine: round report: %w", err)
		}
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("combine: round report removal header truncated")
	}
	n := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if n > transport.MaxSlabWords {
		return nil, fmt.Errorf("combine: declared %d removal entries exceed wire cap", n)
	}
	// Each entry costs at least a shard id plus an empty slab header.
	if n > 0 && n > len(rest)/(8+4) {
		return nil, fmt.Errorf("combine: declared %d removal entries exceed payload", n)
	}
	r.RemovedComponents = make(map[uint64][]int, n)
	for i := 0; i < n; i++ {
		if len(rest) < 8 {
			return nil, fmt.Errorf("combine: removal entry %d truncated", i)
		}
		shard := binary.LittleEndian.Uint64(rest)
		if _, dup := r.RemovedComponents[shard]; dup {
			return nil, fmt.Errorf("combine: duplicate removal entry for shard %d", shard)
		}
		var ks []uint64
		if ks, rest, err = transport.DecodeSlab(rest[8:]); err != nil {
			return nil, fmt.Errorf("combine: removal entry %d: %w", i, err)
		}
		r.RemovedComponents[shard] = uint64sToInts(ks)
	}
	if ver >= 2 {
		if len(rest) < 4 {
			return nil, fmt.Errorf("combine: round report stale header truncated")
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if n > transport.MaxSlabWords {
			return nil, fmt.Errorf("combine: declared %d stale entries exceed wire cap", n)
		}
		if n > len(rest)/16 {
			return nil, fmt.Errorf("combine: declared %d stale entries exceed payload", n)
		}
		if n > 0 {
			r.StaleRounds = make(map[uint64]uint64, n)
			for i := 0; i < n; i++ {
				shard := binary.LittleEndian.Uint64(rest)
				if _, dup := r.StaleRounds[shard]; dup {
					return nil, fmt.Errorf("combine: duplicate stale entry for shard %d", shard)
				}
				r.StaleRounds[shard] = binary.LittleEndian.Uint64(rest[8:])
				rest = rest[16:]
			}
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("combine: round report: %d trailing bytes", len(rest))
	}
	return r, nil
}
