package lightsecagg

import (
	"encoding/binary"
	"fmt"

	"repro/internal/field"
	"repro/internal/transport"
)

// Binary payload codec for the volume wire messages, following the
// magic/tag layout of internal/core/codec.go (the packages cannot share
// code directly — core imports lightsecagg for the RunRound substrate —
// but they share the transport slab helpers and the same conventions).
//
// The messages that dominate the round's byte volume ride these layouts:
// the masked uploads and the result broadcast (dim-length element
// vectors), the n² sealed share envelopes (LightSecAgg's structurally
// heavy offline phase — n·d/(U−T) elements per client), and the aggregate
// shares of the one-shot recovery. The remaining control messages (roster,
// survivor set) stay on gob: their cost is irrelevant and gob's tolerance
// of structural evolution is worth keeping there.
//
// Layout (all integers little-endian):
//
//	masked:    [magic][tagMasked][From:8][n:4][Y: n×8]
//	aggshare:  [magic][tagAggShare][From:8][n:4][S: n×8]
//	result:    [magic][tagLSAResult][n:4][Sum: n×8]
//	envelopes: [magic][tagEnvelopes][n:4]
//	           n × ([From:8][To:8][ctLen:4][Ciphertext: ctLen bytes])
//	share vec: [n:4][S: n×8]   (AEAD plaintext inside an envelope)
//
// The magic byte distinguishes the binary codec from a gob stream, so a
// mixed-version peer fails loudly rather than mis-decoding.
const (
	lsaMagic     = 0xD1
	tagMasked    = 0x01
	tagAggShare  = 0x02
	tagLSAResult = 0x03
	tagEnvelopes = 0x04
)

// maxEnvelopes and maxEnvelopeCtBytes bound the envelope list decode the
// same way core bounds its share bundles.
const (
	maxEnvelopes       = 1 << 20
	maxEnvelopeCtBytes = 1 << 24
)

// decodeElems decodes a word slab (transport.DecodeSlab) into field
// elements, reducing each word mod p.
func decodeElems(src []byte) ([]field.Element, []byte, error) {
	out, rest, err := transport.DecodeSlabOf[field.Element](src)
	if err != nil {
		return nil, nil, err
	}
	for i, w := range out {
		out[i] = field.New(uint64(w))
	}
	return out, rest, nil
}

// shareVectorLen is the byte length of an l-element share vector: the
// slab count header, then the words.
func shareVectorLen(l int) int { return 4 + 8*l }

// appendShareVector appends the AEAD plaintext layout of one coded share
// to dst. s may already sit where its words will land — dst's spare
// capacity, just past the header — and is then encoded in place.
func appendShareVector(dst []byte, s []field.Element) ([]byte, error) {
	return transport.AppendSlab(dst, s)
}

func decodeShareVector(p []byte) ([]field.Element, error) {
	s, rest, err := decodeElems(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("lightsecagg: share vector: %d trailing bytes", len(rest))
	}
	return s, nil
}

// encodeFromVector encodes the shared [From][slab] shape of masked and
// aggregate-share messages.
func encodeFromVector(tag byte, from uint64, xs []field.Element) ([]byte, error) {
	out := make([]byte, 0, 2+8+4+8*len(xs))
	out = append(out, lsaMagic, tag)
	out = binary.LittleEndian.AppendUint64(out, from)
	return transport.AppendSlab(out, xs)
}

func decodeFromVector(tag byte, p []byte) (uint64, []field.Element, error) {
	if len(p) < 10 || p[0] != lsaMagic || p[1] != tag {
		return 0, nil, fmt.Errorf("lightsecagg: not a binary payload with tag %#x", tag)
	}
	from := binary.LittleEndian.Uint64(p[2:])
	xs, rest, err := decodeElems(p[10:])
	if err != nil {
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("lightsecagg: payload: %d trailing bytes", len(rest))
	}
	return from, xs, nil
}

func encodeMasked(m MaskedMsg) ([]byte, error) {
	return encodeFromVector(tagMasked, m.From, m.Y)
}

func decodeMasked(p []byte) (MaskedMsg, error) {
	from, y, err := decodeFromVector(tagMasked, p)
	if err != nil {
		return MaskedMsg{}, fmt.Errorf("lightsecagg: masked input: %w", err)
	}
	return MaskedMsg{From: from, Y: y}, nil
}

func encodeAggShare(m AggShareMsg) ([]byte, error) {
	return encodeFromVector(tagAggShare, m.From, m.S)
}

func decodeAggShare(p []byte) (AggShareMsg, error) {
	from, s, err := decodeFromVector(tagAggShare, p)
	if err != nil {
		return AggShareMsg{}, fmt.Errorf("lightsecagg: aggregate share: %w", err)
	}
	return AggShareMsg{From: from, S: s}, nil
}

func encodeLSAResult(sum []field.Element) ([]byte, error) {
	out := make([]byte, 0, 2+4+8*len(sum))
	out = append(out, lsaMagic, tagLSAResult)
	return transport.AppendSlab(out, sum)
}

func decodeLSAResult(p []byte) ([]field.Element, error) {
	if len(p) < 2 || p[0] != lsaMagic || p[1] != tagLSAResult {
		return nil, fmt.Errorf("lightsecagg: not a binary result payload")
	}
	sum, rest, err := decodeElems(p[2:])
	if err != nil {
		return nil, fmt.Errorf("lightsecagg: result: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("lightsecagg: result: %d trailing bytes", len(rest))
	}
	return sum, nil
}

// encodeEnvelopes encodes a sealed share list (uplink: one sender's
// envelopes; downlink: one recipient's delivery).
func encodeEnvelopes(envs []Envelope) ([]byte, error) {
	if len(envs) > maxEnvelopes {
		return nil, fmt.Errorf("lightsecagg: envelope list of %d exceeds wire cap", len(envs))
	}
	size := 2 + 4
	for _, e := range envs {
		size += 8 + 8 + 4 + len(e.Ciphertext)
	}
	out := make([]byte, 0, size)
	out = append(out, lsaMagic, tagEnvelopes)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(envs)))
	out = append(out, b[:]...)
	for _, e := range envs {
		if len(e.Ciphertext) > maxEnvelopeCtBytes {
			return nil, fmt.Errorf("lightsecagg: envelope ciphertext of %d bytes exceeds wire cap", len(e.Ciphertext))
		}
		out = binary.LittleEndian.AppendUint64(out, e.From)
		out = binary.LittleEndian.AppendUint64(out, e.To)
		binary.LittleEndian.PutUint32(b[:], uint32(len(e.Ciphertext)))
		out = append(out, b[:]...)
		out = append(out, e.Ciphertext...)
	}
	return out, nil
}

// decodeEnvelopes decodes a sealed share list. Counts the remaining bytes
// cannot carry are rejected before the slice allocation (each envelope
// costs at least its 20-byte header).
func decodeEnvelopes(p []byte) ([]Envelope, error) {
	if len(p) < 6 || p[0] != lsaMagic || p[1] != tagEnvelopes {
		return nil, fmt.Errorf("lightsecagg: not a binary envelope payload")
	}
	n := int(binary.LittleEndian.Uint32(p[2:]))
	if n > maxEnvelopes {
		return nil, fmt.Errorf("lightsecagg: declared envelope list of %d exceeds wire cap", n)
	}
	rest := p[6:]
	if n > len(rest)/20 {
		return nil, fmt.Errorf("lightsecagg: declared envelope list of %d exceeds payload", n)
	}
	var envs []Envelope
	if n > 0 {
		envs = make([]Envelope, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(rest) < 20 {
			return nil, fmt.Errorf("lightsecagg: envelope %d header truncated", i)
		}
		e := Envelope{
			From: binary.LittleEndian.Uint64(rest),
			To:   binary.LittleEndian.Uint64(rest[8:]),
		}
		ctLen := int(binary.LittleEndian.Uint32(rest[16:]))
		if ctLen > maxEnvelopeCtBytes {
			return nil, fmt.Errorf("lightsecagg: declared ciphertext of %d bytes exceeds wire cap", ctLen)
		}
		rest = rest[20:]
		if len(rest) < ctLen {
			return nil, fmt.Errorf("lightsecagg: envelope %d ciphertext truncated", i)
		}
		if ctLen > 0 {
			e.Ciphertext = append([]byte(nil), rest[:ctLen]...)
		}
		rest = rest[ctLen:]
		envs = append(envs, e)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("lightsecagg: envelope list: %d trailing bytes", len(rest))
	}
	return envs, nil
}
