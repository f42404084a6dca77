package secagg

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"testing"
)

// Golden-byte pins for the persisted session encodings and the roster
// hash. Every session here is built from deterministic key material, so
// any change to what MarshalBinary writes — field order, a section, a
// version byte — or to the roster digest the handshake compares fails
// with the bytes that changed. A deliberate format change bumps the
// persist version and regenerates these constants.

// goldenRand is a deterministic key source: each read of more than one
// byte fills the buffer from the next counter value, and single-byte
// reads (crypto/ecdh's randomized probe) consume nothing, so the keys
// generated from it are the same on every run.
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

const goldenSessionV2 = "" +
	"da530225262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041" +
	"4243444a4b4c4d4e4f505152535455565758595a5b5c5d5e5f60616263646566" +
	"6768690300000000000000010100000000000000020000000100000000000000" +
	"2000df49217c0efdc4239f405f3911f1a71c5e272d56acf8653812e8b3ba1736" +
	"111d200095a1418934ffc16ef1f34b0c106eb242167133b874fb786fe6423a77" +
	"13f4f358000002000000000000002000575eec781dfc99635e5bbbc46b4a17d2" +
	"2d5adb2eb6105d2c2041e70f8b71585e2000103439a31bc103dced44c17f9eaf" +
	"7f83e92fb0e6f79733e5e3e9e3b11b0987064000070707070707070707070707" +
	"0707070707070707070707070707070707070707070707070707070707070707" +
	"0707070707070707070707070707070707070707010000002000103439a31bc1" +
	"03dced44c17f9eaf7f83e92fb0e6f79733e5e3e9e3b11b098706010000000000" +
	"00000e63b418faf28062ebd262d397e0f05f81182c7f3f77566e5ec4bde9b53e" +
	"24fa010000002000575eec781dfc99635e5bbbc46b4a17d22d5adb2eb6105d2c" +
	"2041e70f8b71585e0200000000000000869a9175dc5739cb43ebd142e334e8e1" +
	"b6d301d09380f1a0a52a649c2d802eda"

// TestGoldenSessionPersist pins the v2 client-session encoding: keys,
// ratchet mark, taint, noise epoch, roster and both secret caches.
func TestGoldenSessionPersist(t *testing.T) {
	kr := &goldenRand{}
	a, err := NewSession(kr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(kr)
	if err != nil {
		t.Fatal(err)
	}
	aCipher, aMask := a.keyPairs()
	bCipher, bMask := b.keyPairs()
	if _, err := a.maskSecret(bMask.PublicBytes(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.channelSecret(bCipher.PublicBytes(), 2); err != nil {
		t.Fatal(err)
	}
	a.StoreRoster([]AdvertiseMsg{
		{From: 1, CipherPub: aCipher.PublicBytes(), MaskPub: aMask.PublicBytes()},
		{From: 2, CipherPub: bCipher.PublicBytes(), MaskPub: bMask.PublicBytes(), Signature: bytes.Repeat([]byte{7}, 64)},
	})
	a.MarkRatchetUsed(2)
	a.Taint()
	a.SetNoiseEpoch(1)

	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "secagg session v2", blob, goldenSessionV2)
	restored, err := UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "restored secagg session", again, goldenSessionV2)
}

const goldenServerSession = "" +
	"da560103000000000000000400000001000000000000002000df49217c0efdc4" +
	"239f405f3911f1a71c5e272d56acf8653812e8b3ba1736111d200095a1418934" +
	"ffc16ef1f34b0c106eb242167133b874fb786fe6423a7713f4f3580000020000" +
	"00000000002000575eec781dfc99635e5bbbc46b4a17d22d5adb2eb6105d2c20" +
	"41e70f8b71585e2000103439a31bc103dced44c17f9eaf7f83e92fb0e6f79733" +
	"e5e3e9e3b11b0987060000030000000000000020004c9e4445cd3f6d3baf4221" +
	"6adeb777fa29ca3f9737a81d777d9f97c0d676e0152000bc29325f5c480952ec" +
	"93846fb1b584ff6310cab92093ff1c1a71873e964cae5a000004000000000000" +
	"002000909705b0e7d1817db56cdcb89ba2fabad3e9a01b2c23bc73e3ec9d9a2f" +
	"f9b8272000492f1cb85847ffc7bb427865f64c5e8041ec0499b37a1da945a15b" +
	"4102af027e000004000000010000000000000002000000000000000300000000" +
	"0000000400000000000000010000000400000000000000"

const goldenServerRosterHash = "844b97120722e1db27670c60b80ce1bef08fd5b97fd9396865240c76d186a14b"

// TestGoldenServerSessionPersist pins the server-session encoding of a
// real round's state: four clients on deterministic keys, client 4
// dropping before its masked upload (so the server reconstructs its mask
// key and taints it), then a burned ratchet step; and the roster digest
// the server offers in the handshake for that client set.
func TestGoldenServerSessionPersist(t *testing.T) {
	cfg := mkConfig(4, 3, nil)
	rs, err := NewRoundSessions(cfg.ClientIDs, &goldenRand{})
	if err != nil {
		t.Fatal(err)
	}
	drops := DropSchedule{4: StageMaskedInput}
	if _, err := RunWithSessions(cfg, mkInputs(cfg), nil, drops, rand.Reader, rs); err != nil {
		t.Fatal(err)
	}
	rs.Server.MarkRatchetUsed(2)

	blob, err := rs.Server.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "secagg server session", blob, goldenServerSession)
	h, ok := rs.Server.StateHashFor(cfg.ClientIDs)
	if !ok {
		t.Fatal("server session reports no state hash for its own client set")
	}
	checkGolden(t, "secagg server roster hash", h[:], goldenServerRosterHash)
	restored, err := UnmarshalServerSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "restored secagg server session", again, goldenServerSession)
}

const goldenRosterHash = "1037bc6e0a2d42278584c6bccfd2682c0fb4a12df0dc544a726057d2c1c642ee"

// TestGoldenRosterHash pins the roster digest of a fixed roster, as a
// client session reports it to the handshake (StateHash).
func TestGoldenRosterHash(t *testing.T) {
	c, err := NewSession(&goldenRand{})
	if err != nil {
		t.Fatal(err)
	}
	c.StoreRoster([]AdvertiseMsg{
		{From: 3, CipherPub: bytes.Repeat([]byte{0x11}, 32), MaskPub: bytes.Repeat([]byte{0x22}, 32), Signature: []byte{9}},
		{From: 8, CipherPub: bytes.Repeat([]byte{0x33}, 32), MaskPub: bytes.Repeat([]byte{0x44}, 32)},
	})
	h, ok := c.StateHash()
	if !ok {
		t.Fatal("client session reports no state hash")
	}
	checkGolden(t, "secagg roster hash", h[:], goldenRosterHash)
}
