//go:build !race

package lightsecagg

import "testing"

// TestSharePathAllocs: with the per-peer ciphers cached, sealing a
// client's shares and opening the envelopes addressed to it allocate at
// most one object per envelope — the sealed slab and bookkeeping on one
// side, the decoded share vectors on the other. (Excluded under -race,
// whose instrumentation changes what escapes.)
func TestSharePathAllocs(t *testing.T) {
	cfg := testConfig(16, 4, 4, 4096)
	sess, err := NewRoundSessions(cfg.ClientIDs, rng("alloc-keys"))
	if err != nil {
		t.Fatal(err)
	}
	var roster []AdvertiseMsg
	for _, id := range cfg.ClientIDs {
		roster = append(roster, AdvertiseMsg{From: id, Pub: sess.Client[id].PublicBytes()})
	}
	clients := make(map[uint64]*Client, len(cfg.ClientIDs))
	toSelf := make([]Envelope, 0, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		c, err := NewSessionClient(cfg, id, rng("alloc-client"), sess.Client[id])
		if err != nil {
			t.Fatal(err)
		}
		clients[id] = c
		envs, err := c.SealShares(roster)
		if err != nil {
			t.Fatal(err)
		}
		toSelf = append(toSelf, envs[0]) // addressed to ClientIDs[0]
	}
	n := float64(len(cfg.ClientIDs))

	sealer := clients[cfg.ClientIDs[1]]
	seal := testing.AllocsPerRun(10, func() {
		if _, err := sealer.SealShares(roster); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("SealShares: %v allocations for %v envelopes", seal, n)
	if seal > n {
		t.Errorf("SealShares of %v envelopes makes %v allocations", n, seal)
	}
	opener := clients[cfg.ClientIDs[0]]
	open := testing.AllocsPerRun(10, func() {
		if err := opener.OpenEnvelopes(toSelf); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("OpenEnvelopes: %v allocations for %v envelopes", open, n)
	if open > n {
		t.Errorf("OpenEnvelopes of %v envelopes makes %v allocations", n, open)
	}
}
