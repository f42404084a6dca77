package lightsecagg

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/prg"
)

// Golden-byte pins for the persisted client-session encoding and the
// roster hash, built from deterministic key material (see the secagg
// package's golden tests for the rationale).

// goldenRand is a deterministic key source: each read of more than one
// byte fills the buffer from the next counter value, and single-byte
// reads (crypto/ecdh's randomized probe) consume nothing.
type goldenRand struct{ n byte }

func (r *goldenRand) Read(p []byte) (int, error) {
	if len(p) > 1 {
		r.n++
		for i := range p {
			p[i] = r.n*37 + byte(i)
		}
	}
	return len(p), nil
}

func checkGolden(t *testing.T, what string, got []byte, wantHex string) {
	t.Helper()
	if h := hex.EncodeToString(got); h != wantHex {
		t.Fatalf("%s bytes changed:\n got %s\nwant %s", what, h, wantHex)
	}
}

const goldenSession = "" +
	"da4c0125262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041" +
	"42434404000000000000000200000001000000000000002000df49217c0efdc4" +
	"239f405f3911f1a71c5e272d56acf8653812e8b3ba1736111d02000000000000" +
	"00200095a1418934ffc16ef1f34b0c106eb242167133b874fb786fe6423a7713" +
	"f4f35801000000200095a1418934ffc16ef1f34b0c106eb242167133b874fb78" +
	"6fe6423a7713f4f358ca823950acb897455cdf3bf4f18e444a909b36c5ce04bb" +
	"01d912893a354aa86d"

// TestGoldenLSASessionPersist pins the client-session encoding: channel
// key, rounds-served counter, roster and the channel-secret cache.
func TestGoldenLSASessionPersist(t *testing.T) {
	kr := &goldenRand{}
	a, err := NewSession(kr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(kr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.channelKey(b.PublicBytes()); err != nil {
		t.Fatal(err)
	}
	a.StoreRoster([]AdvertiseMsg{{From: 1, Pub: a.PublicBytes()}, {From: 2, Pub: b.PublicBytes()}})
	a.MarkRatchetUsed(3)

	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lightsecagg session", blob, goldenSession)
	restored, err := UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "restored lightsecagg session", again, goldenSession)
}

const goldenRosterHash = "368ea673458a975abe0b6d7787e83a7107449ca135857415a78610d1d2142f91"

// TestGoldenLSARosterHash pins the roster digest of a fixed roster as a
// client session reports it to the handshake (StateHash).
func TestGoldenLSARosterHash(t *testing.T) {
	c, err := NewSession(&goldenRand{})
	if err != nil {
		t.Fatal(err)
	}
	c.StoreRoster([]AdvertiseMsg{
		{From: 3, Pub: bytes.Repeat([]byte{0x11}, 32)},
		{From: 8, Pub: bytes.Repeat([]byte{0x33}, 32)},
	})
	h, ok := c.StateHash()
	if !ok {
		t.Fatal("client session reports no state hash")
	}
	checkGolden(t, "lightsecagg roster hash", h[:], goldenRosterHash)
}

// readLog is a deterministic randomness source that is not a *prg.Stream
// (so mask fills take the generic bulk-read path) and records the size of
// every read, so the golden below pins the read pattern as well as the
// bytes.
type readLog struct {
	s     *prg.Stream
	sizes []int
}

func (r *readLog) Read(p []byte) (int, error) {
	r.sizes = append(r.sizes, len(p))
	return r.s.Read(p)
}

const (
	goldenSealedShares = "c6dfa9b515903789f5db726d158f4c7696d9e647750f9920f64c26210f201359"
	goldenShareReads   = "59b9a0563036b6f54bac6f8e2024482daed92881a72b2bdf45e78905dd5ce36c"
)

// TestGoldenLSASealedShares pins the share path's wire bytes: the mask
// and coding-noise draws, the coded shares, the envelope layout and its
// AES-GCM sealing (nonces included) of one client's SealShares, plus the
// sequence of read sizes it made from its randomness source. A mask fill
// of 5001 elements spans three bulk reads. Every recipient then opens its
// envelope back into the coded share EncodeShares computes.
func TestGoldenLSASealedShares(t *testing.T) {
	cfg := testConfig(5, 1, 1, 5000)
	cfg.Round = 7
	kr := &goldenRand{}
	sess := make(map[uint64]*Session, len(cfg.ClientIDs))
	var roster []AdvertiseMsg
	for _, id := range cfg.ClientIDs {
		s, err := NewSession(kr)
		if err != nil {
			t.Fatal(err)
		}
		sess[id] = s
		roster = append(roster, AdvertiseMsg{From: id, Pub: s.PublicBytes()})
	}
	src := &readLog{s: prg.NewStream(prg.NewSeed([]byte("lsa-golden-shares")))}
	c, err := NewSessionClient(cfg, 1, src, sess[1])
	if err != nil {
		t.Fatal(err)
	}
	envs, err := c.SealShares(roster)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range envs {
		var hdr [20]byte
		binary.LittleEndian.PutUint64(hdr[0:], e.From)
		binary.LittleEndian.PutUint64(hdr[8:], e.To)
		binary.LittleEndian.PutUint32(hdr[16:], uint32(len(e.Ciphertext)))
		h.Write(hdr[:])
		h.Write(e.Ciphertext)
	}
	checkGolden(t, "sealed shares digest", h.Sum(nil), goldenSealedShares)
	reads := sha256.New()
	for _, n := range src.sizes {
		reads.Write(binary.LittleEndian.AppendUint32(nil, uint32(n)))
	}
	checkGolden(t, "randomness read sizes digest", reads.Sum(nil), goldenShareReads)

	shares, err := c.EncodeShares()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		r, err := NewSessionClient(cfg, e.To, rng("golden-recipient"), sess[e.To])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.SealShares(roster); err != nil {
			t.Fatal(err)
		}
		if err := r.OpenEnvelopes([]Envelope{e}); err != nil {
			t.Fatal(err)
		}
		got, want := r.received[1], shares[e.To]
		if len(got) != len(want) {
			t.Fatalf("recipient %d: share length %d, want %d", e.To, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("recipient %d: share[%d] = %d, want %d", e.To, i, got[i], want[i])
			}
		}
	}
}
