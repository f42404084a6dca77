// Command dordis-node runs one party of a Dordis aggregation service over
// TCP — the deployment flavor of the protocol stack. Start a server, then
// clients (one process each, e.g. on different machines):
//
//	dordis-node -role server -listen :7700 -clients 1,2,3,4,5 -threshold 3
//	dordis-node -role client -connect host:7700 -id 1 -clients 1,2,3,4,5 -threshold 3 -value 7
//
// or the whole service in one process for a smoke test: -role selftest.
// Every client contributes a constant vector of its -value; the server
// prints the unmasked aggregate. With -tolerance > 0 the round runs
// XNoise with the given dropout tolerance and target noise level.
// -protocol lightsecagg runs the LightSecAgg baseline instead (one-shot
// mask recovery, no DP noise): -tolerance then means the dropout
// tolerance D and -threshold the privacy threshold T. Every role runs
// the one server loop or the one client loop of node.go; sharded.go
// adds the two-level topology.
//
// # Sessions, resume, and the re-key handshake
//
// The node runs -rounds rounds (a single round is -rounds 1), each after
// the signed re-key handshake (PROTOCOL.md §handshake). It decides
// whether the round *resumes* the live key generation — skipping the
// advertise stage, with zero X25519 key generations and agreements — or
// re-keys. Resume needs -key-rounds > 1 on the server (the default of 1
// re-keys every round), matching session state hashes, no dropout taint
// (a client that vanished mid-round may have had its mask key
// reconstructed), and rounds left in the key generation. If only a
// *few* members diverge, only their pairwise edges re-key (a partial
// re-key); broader divergence re-keys everyone.
//
// Clients dial with capped exponential backoff (the service may come up
// late). A transport failure mid-round forfeits that round: the client
// re-dials and rejoins at the next handshake, where its in-flight taint
// re-keys only its own edges.
//
// -session-dir makes clients persist their session (key pairs, cached
// pairwise secrets, ratchet position — never expanded masks) to an
// AEAD-encrypted store after the handshake and after each completed
// round, keyed by the contents of -session-key-file (created with random
// bytes on first use). A restarted client rejoins on its restored
// session and, if nothing diverged, resumes with zero key work;
// restarting *mid-round* leaves the session tainted, so the next
// handshake re-keys it, as does dropping the store.
//
// The handshake is Ed25519-signed when the server is given
// -sign-key-file (created on first use; the verification key is printed
// at startup). Clients pin it with -server-pub <hex>; without the pin
// they accept unsigned handshakes (semi-honest deployments).
//
// # Verifiable round transcripts
//
// -transcript makes the server (or each shard aggregator and the root
// combiner) commit every round to a Merkle transcript — roster,
// advertise keys, masked-input digests — chain the round root to the
// previous one, sign it when -sign-key-file is set, and serve every
// surviving client an inclusion proof for its own contribution
// (PROTOCOL.md §transcript). Clients opt in with -verify-transcript:
// the round fails loudly unless the proof verifies against the
// committed root, the signature checks out under the -server-pub pin,
// and the root chains from the previous audited round. Clients of a
// sharded topology also audit the shard root's inclusion in the
// combiner's signed tree, pinning -combiner-pub. Enable -transcript on
// every aggregator role of a topology together: a shard relays the
// combiner tier only when both sides emit it.
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lightsecagg"
	"repro/internal/secagg"
	"repro/internal/sessionstore"
	"repro/internal/sig"
	"repro/internal/transcript"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// options holds the parsed flags.
type options struct {
	role, listen, connect, clients, protocol     string
	id, value, noiseEpoch, shardID               uint64
	threshold, dim, tolerance, rounds, keyRounds int
	shards, shardQuorum, killShard               int
	mu                                           float64
	deadline, combineDeadline                    time.Duration
	sessionDir, sessionKeyFile, signKeyFile      string
	serverPub, combinerPub, combinerAddr         string
	transcript, verifyTranscript                 bool
}

func main() {
	var o options
	flag.StringVar(&o.role, "role", "selftest", "server | client | selftest | combiner | shard | shardtest")
	flag.StringVar(&o.listen, "listen", "127.0.0.1:7700", "server listen address")
	flag.StringVar(&o.connect, "connect", "127.0.0.1:7700", "client: server address")
	flag.Uint64Var(&o.id, "id", 0, "client id (must appear in -clients)")
	flag.StringVar(&o.clients, "clients", "1,2,3,4,5", "comma-separated sampled client ids")
	flag.IntVar(&o.threshold, "threshold", 3, "SecAgg threshold t (lightsecagg: privacy threshold T)")
	flag.IntVar(&o.dim, "dim", 64, "vector dimension")
	flag.Uint64Var(&o.value, "value", 1, "client: constant vector value")
	flag.IntVar(&o.tolerance, "tolerance", 1, "XNoise dropout tolerance T (0 = plain SecAgg; lightsecagg: dropout tolerance D)")
	flag.Float64Var(&o.mu, "mu", 25, "XNoise central noise variance target")
	flag.DurationVar(&o.deadline, "deadline", 3*time.Second, "per-stage collection deadline")
	flag.StringVar(&o.protocol, "protocol", "secagg", "secagg | lightsecagg")
	flag.Uint64Var(&o.noiseEpoch, "noise-epoch", 0,
		"XNoise draw-sequence version: 0 = legacy Knuth/PTRS sequence, 1 = CDF-inversion fast path; the server announces it via the handshake and clients adopt the committed value")

	flag.IntVar(&o.rounds, "rounds", 1,
		"consecutive rounds to run; the re-key handshake runs before every round")
	flag.StringVar(&o.sessionDir, "session-dir", "",
		"client: directory of the AEAD-encrypted session store; enables session persistence across restarts")
	flag.StringVar(&o.sessionKeyFile, "session-key-file", "",
		"client: file holding the session store's key material (created with random bytes on first use; defaults to <session-dir>/store.key)")
	flag.IntVar(&o.keyRounds, "key-rounds", 1,
		"server: rounds one key generation may serve; > 1 lets handshakes resume sessions across rounds, <= 1 re-keys every round (conservative default)")
	flag.StringVar(&o.signKeyFile, "sign-key-file", "",
		"server: Ed25519 seed file for signing handshake offers/commits (created on first use; prints the verification key)")
	flag.StringVar(&o.serverPub, "server-pub", "",
		"client: hex Ed25519 verification key; when set, unsigned or mis-signed handshakes are rejected")

	flag.BoolVar(&o.transcript, "transcript", false,
		"server/shard/combiner: commit each round to a Merkle transcript with chained, signed roots (-sign-key-file) and serve clients inclusion proofs; enable on every aggregator role of a topology together")
	flag.BoolVar(&o.verifyTranscript, "verify-transcript", false,
		"client: require and verify the round transcript proof for this client's own contribution; pins -server-pub when set (and -combiner-pub for the combiner tier of sharded runs)")
	flag.StringVar(&o.combinerPub, "combiner-pub", "",
		"client: hex Ed25519 verification key of the combiner's transcript signer (sharded runs with -verify-transcript)")

	flag.IntVar(&o.shards, "shards", 1,
		"shard count S of the two-level topology; > 1 makes clients derive their shard sub-roster from -clients (roles combiner/shard/shardtest; see sharded.go)")
	flag.Uint64Var(&o.shardID, "shard-id", 0,
		"shard: this aggregator's shard id (0..S-1, also its id on the combiner connection)")
	flag.StringVar(&o.combinerAddr, "combiner-addr", "127.0.0.1:7800",
		"shard: root combiner address to fold the shard partial into")
	flag.IntVar(&o.shardQuorum, "shard-quorum", 0,
		"combiner: minimum shard partials to fold (0 = all); missing shards above it degrade the round instead of aborting")
	flag.DurationVar(&o.combineDeadline, "combine-deadline", 60*time.Second,
		"combiner: bound for collecting shard partials (must cover a full shard round); shard: bound for the folded report")
	flag.IntVar(&o.killShard, "kill-shard", -1,
		"shardtest: crash this shard aggregator mid-round (-1 = none)")
	flag.Parse()

	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "dordis-node:", err)
		os.Exit(1)
	}
}

// run starts the role's loop.
func run(o *options) error {
	ids, err := parseIDs(o.clients)
	if err != nil {
		return err
	}
	sharded := o.shards > 1 || o.role == "combiner" || o.role == "shard" || o.role == "shardtest"
	if sharded && o.protocol != "secagg" {
		return fmt.Errorf("the sharded topology supports -protocol secagg only")
	}
	if o.role == "client" && o.id == 0 {
		return fmt.Errorf("client needs -id")
	}
	var sub substrate
	switch {
	case o.role == "shard" || o.role == "client" && o.shards > 1:
		// A shard aggregator, and a client inside the shard owning its
		// id, run over the shard's sub-roster at the split noise mu/S.
		if ids, err = subRoster(o, ids); err == nil {
			sub, err = shardNode(o, ids)
		}
	case o.role == "server" || o.role == "client" || o.role == "selftest":
		sub, err = newSubstrate(o, ids, o.mu)
	}
	if err != nil {
		return err
	}
	ctx := context.Background()
	switch o.role {
	case "server", "shard":
		s := &server{sub: sub, rounds: o.rounds, keyRounds: o.keyRounds, deadline: o.deadline}
		// One signer serves both the handshake and the transcript chain,
		// so clients pin a single -server-pub for both layers.
		if s.signer, err = loadSigner(o.signKeyFile, "-server-pub"); err != nil {
			return err
		}
		s.rec = recorder(o.transcript, s.signer)
		if s.srv, err = transport.ListenTCP(o.listen); err != nil {
			return err
		}
		defer s.srv.Close()
		name := "server"
		if o.role == "shard" {
			up, err := dial(ctx, o.combinerAddr, o.shardID)
			if err != nil {
				return err
			}
			defer up.Close()
			s.up = &uplink{conn: up, shard: o.shardID, deadline: o.combineDeadline}
			name = fmt.Sprintf("shard %d", o.shardID)
		}
		fmt.Printf("%s listening on %s for %d clients, %d round(s), key generations serve up to %d round(s)\n",
			name, s.srv.Addr(), len(ids), o.rounds, max(o.keyRounds, 1))
		return serve(ctx, s)
	case "client":
		c := &client{sub: sub, addr: o.connect, id: o.id, value: o.value, rounds: o.rounds, out: os.Stdout}
		if c.store, err = openStore(o.sessionDir, o.sessionKeyFile); err != nil {
			return err
		}
		if c.serverPub, err = parsePub("-server-pub", o.serverPub); err != nil {
			return err
		}
		combinerPub, err := parsePub("-combiner-pub", o.combinerPub)
		if err != nil {
			return err
		}
		if o.verifyTranscript {
			c.aud = transcript.NewAuditor(c.serverPub)
			if o.shards > 1 {
				c.caud = transcript.NewCombineAuditor(combinerPub)
			}
		}
		return join(ctx, c)
	case "selftest":
		return selfTest(o, sub)
	case "combiner":
		var signer *sig.Signer
		if o.transcript {
			if signer, err = loadSigner(o.signKeyFile, "-combiner-pub"); err != nil {
				return err
			}
		}
		srv, err := transport.ListenTCP(o.listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("combiner listening on %s for %d shard aggregators (quorum %d)\n",
			srv.Addr(), o.shards, o.shardQuorum)
		_, err = runCombiner(ctx, srv, o, recorder(o.transcript, signer))
		return err
	case "shardtest":
		return shardSelfTest(o, ids)
	}
	return fmt.Errorf("unknown role %q", o.role)
}

// recorder starts the transcript chain under signer when on; one
// recorder spans every round of the process so the round roots chain.
func recorder(on bool, signer *sig.Signer) *transcript.Recorder {
	if !on {
		return nil
	}
	return transcript.NewRecorder(signer)
}

// newSubstrate validates the -protocol round config over ids with noise
// target mu.
func newSubstrate(o *options, ids []uint64, mu float64) (substrate, error) {
	switch o.protocol {
	case "secagg":
		cfg := secagg.Config{Round: 1, ClientIDs: ids, Threshold: o.threshold, Bits: 20, Dim: o.dim,
			NoiseEpoch: o.noiseEpoch}
		if o.tolerance > 0 {
			cfg.XNoise = &xnoise.Plan{NumClients: len(ids), DropoutTolerance: o.tolerance,
				Threshold: o.threshold, TargetVariance: mu}
		}
		return secaggNode{cfg}, cfg.Validate()
	case "lightsecagg":
		if o.transcript || o.verifyTranscript {
			return nil, fmt.Errorf("-transcript/-verify-transcript require -protocol secagg")
		}
		cfg := lightsecagg.Config{ClientIDs: ids, PrivacyT: o.threshold, Dropout: o.tolerance, Dim: o.dim}
		return lsaNode{cfg}, cfg.Validate()
	}
	return nil, fmt.Errorf("unknown protocol %q", o.protocol)
}

func parseIDs(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad client id %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// dial connects to addr as id with capped exponential backoff for up to
// a minute: the service may come up late or blip.
func dial(ctx context.Context, addr string, id uint64) (*transport.TCPClient, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	return transport.DialRetry(ctx, addr, id, transport.RetryConfig{})
}

// waitForClients blocks until n clients are connected, ctx ends or a
// positive deadline expires: past it the handshake offers past absentees
// and the round thresholds decide.
func waitForClients(ctx context.Context, srv *transport.TCPServer, n int, deadline time.Duration) {
	start := time.Now()
	for len(srv.Clients()) < n && ctx.Err() == nil {
		if deadline > 0 && time.Since(start) >= deadline {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// loadSigner loads (or creates) the role's Ed25519 signing key, printing
// the verification key next to the flag clients pin it with. An empty
// path means unsigned operation (semi-honest mode).
func loadSigner(path, pinFlag string) (*sig.Signer, error) {
	if path == "" {
		return nil, nil
	}
	seed, err := loadOrCreateKey(path)
	if err != nil {
		return nil, err
	}
	signer, err := sig.NewSigner(bytes.NewReader(seed[:32]))
	if err != nil {
		return nil, err
	}
	fmt.Printf("signing enabled; clients pin with %s %s\n", pinFlag, hex.EncodeToString(signer.Public()))
	return signer, nil
}

// loadOrCreateKey reads key material from path, creating the file with 32
// random bytes (0600) on first use — shared by the handshake signing seed
// and the session store key.
func loadOrCreateKey(path string) ([]byte, error) {
	material, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		material = make([]byte, 32)
		if _, err := rand.Read(material); err != nil {
			return nil, err
		}
		err = os.WriteFile(path, material, 0o600)
	}
	if err != nil {
		return nil, err
	}
	if len(material) < 32 {
		return nil, fmt.Errorf("key file %s holds %d bytes, need at least 32", path, len(material))
	}
	return material, nil
}

// parsePub decodes the hex verification key given to flagName.
func parsePub(flagName, hexPub string) ([]byte, error) {
	if hexPub == "" {
		return nil, nil
	}
	pub, err := hex.DecodeString(hexPub)
	if err != nil {
		return nil, fmt.Errorf("bad %s: %w", flagName, err)
	}
	return pub, nil
}

// openStore opens the client's session store, creating the key file with
// random bytes on first use. A nil return means persistence is off: the
// session lives in process memory.
func openStore(dir, keyFile string) (*sessionstore.Store, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	if keyFile == "" {
		keyFile = dir + "/store.key"
	}
	material, err := loadOrCreateKey(keyFile)
	if err != nil {
		return nil, err
	}
	return sessionstore.Open(dir, sessionstore.DeriveKey(material))
}

// printAudit reports the last verified transcript roots after a round
// (no-op without -verify-transcript).
func printAudit(w io.Writer, id uint64, aud *transcript.Auditor, caud *transcript.CombineAuditor) {
	last := func(tier string, h []transcript.RootRecord) {
		if len(h) > 0 {
			fmt.Fprintf(w, "client %d: %s verified, round %d root %s\n",
				id, tier, h[len(h)-1].Round, shortRoot(h[len(h)-1].Root))
		}
	}
	if aud != nil {
		last("transcript", aud.History())
	}
	if caud != nil {
		last("combiner tier", caud.History())
	}
}

// tip renders the chained transcript root after a round ("" without
// -transcript).
func tip(rec *transcript.Recorder) string {
	if rec == nil {
		return ""
	}
	root, ok := rec.Tip()
	if !ok {
		return ""
	}
	return fmt.Sprintf("transcript root %s (chained)\n", shortRoot(root))
}

func shortRoot(r [32]byte) string { return hex.EncodeToString(r[:8]) }

// selfTest runs the flat service over loopback TCP in one process,
// client i sending the constant vector i.
func selfTest(o *options, sub substrate) error {
	s := &server{sub: sub, rounds: o.rounds, keyRounds: o.keyRounds, deadline: o.deadline}
	clients, wait, err := loopback(context.Background(), o, s, nil, func(i int) uint64 { return uint64(i + 1) })
	if err != nil {
		return err
	}
	if err := wait(); err != nil {
		return err
	}
	if s.rec != nil {
		verified := 0
		for _, c := range clients {
			if len(c.aud.History()) > 0 {
				verified++
			}
		}
		fmt.Printf("transcript verified by %d/%d clients\n", verified, len(clients))
	}
	return nil
}

// loopback starts s's server loop on a loopback listener and one client
// loop per roster id (client i sending the constant vector value(i)),
// all under ctx. With -transcript, s signs under a throwaway key that its
// clients pin, and combPub, when set, has them audit the combiner tier
// too. wait returns the server loop's error once every client is done; a
// failed server releases its clients.
func loopback(ctx context.Context, o *options, s *server, combPub []byte,
	value func(int) uint64) (clients []*client, wait func() error, err error) {

	var pub []byte
	if s.signer, pub, err = testSigner(o); err != nil {
		return nil, nil, err
	}
	s.rec = recorder(pub != nil, s.signer)
	if s.srv, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	ctx, stop := context.WithCancel(ctx)
	var cwg sync.WaitGroup
	for i, id := range s.sub.handshake().ClientIDs {
		c := &client{sub: s.sub, addr: s.srv.Addr(), id: id, value: value(i), rounds: s.rounds,
			serverPub: pub, out: io.Discard}
		if pub != nil {
			c.aud = transcript.NewAuditor(pub)
			if combPub != nil {
				c.caud = transcript.NewCombineAuditor(combPub)
			}
		}
		clients = append(clients, c)
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			// Errors after a cancel are collateral of a dead server.
			if err := join(ctx, c); err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "client", c.id, ":", err)
			}
		}()
	}
	errc := make(chan error, 1)
	go func() {
		err := serve(ctx, s)
		if err != nil {
			stop()
		}
		cwg.Wait() // clients drain the last result before teardown
		stop()
		s.srv.Close()
		if s.up != nil {
			s.up.conn.Close()
		}
		errc <- err
	}()
	return clients, func() error { return <-errc }, nil
}

// testSigner makes a throwaway signing key for the in-process roles when
// transcripts are on, with the public key their clients pin.
func testSigner(o *options) (*sig.Signer, []byte, error) {
	if !o.transcript && !o.verifyTranscript {
		return nil, nil, nil
	}
	signer, err := sig.NewSigner(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	return signer, signer.Public(), nil
}
