package lightsecagg

import (
	"bytes"
	"encoding/hex"
	"testing"
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
