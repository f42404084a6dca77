package lightsecagg

import (
	"context"
	"crypto/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/transport"
)

func runWireRound(t *testing.T, cfg Config, inputs map[uint64][]field.Element,
	dropAt DropSchedule) ([]field.Element, error) {
	t.Helper()
	return runWireRoundDeadline(t, cfg, inputs, dropAt, 800*time.Millisecond)
}

func runWireRoundDeadline(t *testing.T, cfg Config, inputs map[uint64][]field.Element,
	dropAt DropSchedule, deadline time.Duration) ([]field.Element, error) {
	t.Helper()
	net := transport.NewMemoryNetwork(256)
	conns := make(map[uint64]transport.ClientConn, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		c, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		conns[id] = c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	var mu sync.Mutex
	clientErrs := make(map[uint64]error)
	for _, id := range cfg.ClientIDs {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			wcfg := WireClientConfig{
				Config: cfg, ID: id, Input: inputs[id],
				DropBefore: dropAt.Before(id), Rand: rand.Reader,
			}
			_, err := RunWireClient(ctx, wcfg, conns[id])
			mu.Lock()
			clientErrs[id] = err
			mu.Unlock()
		}()
	}
	sum, err := RunWireServer(ctx,
		WireServerConfig{Config: cfg, StageDeadline: deadline}, net.Server())
	if err != nil {
		cancel() // unblock clients waiting on a round that died
	}
	wg.Wait()
	if err == nil {
		// On a successful round, every non-dropped client must finish
		// cleanly too.
		for id, cerr := range clientErrs {
			if cerr != nil && dropAt.Before(id) == NoDrop {
				t.Errorf("client %d: %v", id, cerr)
			}
		}
	}
	return sum, err
}

func TestWireRoundNoDropout(t *testing.T) {
	cfg := testConfig(5, 1, 1, 24)
	inputs, wantSum := makeInputs(cfg)
	sum, err := runWireRound(t, cfg, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, sum, wantSum(nil))
}

func TestWireRoundDropBeforeMasked(t *testing.T) {
	cfg := testConfig(6, 1, 2, 16)
	inputs, wantSum := makeInputs(cfg)
	drops := DropSchedule{3: StageMaskedInput, 5: StageMaskedInput}
	sum, err := runWireRound(t, cfg, inputs, drops)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, sum, wantSum(map[uint64]bool{3: true, 5: true}))
}

func TestWireRoundDropDuringRecovery(t *testing.T) {
	cfg := testConfig(6, 1, 1, 16) // U = 5
	inputs, wantSum := makeInputs(cfg)
	// All six upload; one survivor then vanishes before the aggregate
	// share — five responders = U exactly.
	drops := DropSchedule{4: StageAggShare}
	sum, err := runWireRound(t, cfg, inputs, drops)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, sum, wantSum(nil))
}

func TestWireRoundAbortsBeyondTolerance(t *testing.T) {
	cfg := testConfig(5, 1, 1, 8) // U = 4
	inputs, _ := makeInputs(cfg)
	drops := DropSchedule{1: StageMaskedInput, 2: StageMaskedInput}
	if _, err := runWireRound(t, cfg, inputs, drops); err == nil {
		t.Fatal("expected abort: 2 dropouts exceed D = 1")
	}
}

// TestWireSharesSealedFromServer: the frames relayed during the share
// stage are AEAD ciphertexts — the server (or any observer of the star
// network) cannot read coded shares in transit. We verify by running a
// round through a snooping wrapper that records stage-2 payloads and then
// checking a known share value never appears in them.
func TestWireSharesSealedFromServer(t *testing.T) {
	cfg := testConfig(4, 1, 1, 8)
	inputs, _ := makeInputs(cfg)

	net := transport.NewMemoryNetwork(256)
	conns := make(map[uint64]transport.ClientConn, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		c, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		conns[id] = c
	}
	snoop := &recordingServerConn{ServerConn: net.Server()}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range cfg.ClientIDs {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := RunWireClient(ctx, WireClientConfig{
				Config: cfg, ID: id, Input: inputs[id], DropBefore: NoDrop, Rand: rand.Reader,
			}, conns[id])
			if err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}()
	}
	if _, err := RunWireServer(ctx, WireServerConfig{Config: cfg, StageDeadline: 800 * time.Millisecond}, snoop); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	snoop.mu.Lock()
	defer snoop.mu.Unlock()
	if snoop.shareFrames == 0 {
		t.Fatal("snoop recorded no share frames — test wiring broken")
	}
	// Every ciphertext inside a recorded stage-2 payload must be
	// high-entropy: a plaintext share vector would contain long runs of
	// zero bytes (the codec's length-prefixed small elements); AEAD output
	// does not. The envelope framing itself (From/To/length headers) is
	// legitimately structured, so the check decodes it first.
	for _, p := range snoop.payloads {
		envs, err := decodeEnvelopes(p)
		if err != nil {
			t.Fatalf("stage-2 payload is not an envelope list: %v", err)
		}
		for _, env := range envs {
			zeros := 0
			for _, b := range env.Ciphertext {
				if b == 0 {
					zeros++
				}
			}
			if frac := float64(zeros) / float64(len(env.Ciphertext)); frac > 0.2 {
				t.Fatalf("share ciphertext %.0f%% zero bytes — looks like plaintext", 100*frac)
			}
		}
	}
}

type recordingServerConn struct {
	transport.ServerConn
	mu          sync.Mutex
	shareFrames int
	payloads    [][]byte
}

func (r *recordingServerConn) Recv(ctx context.Context) (transport.Frame, error) {
	f, err := r.ServerConn.Recv(ctx)
	if err == nil && f.Stage == wireShares {
		r.mu.Lock()
		r.shareFrames++
		r.payloads = append(r.payloads, append([]byte(nil), f.Payload...))
		r.mu.Unlock()
	}
	return f, err
}

func TestWireRoundOverTCP(t *testing.T) {
	cfg := testConfig(4, 1, 1, 12)
	inputs, wantSum := makeInputs(cfg)

	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conns := make(map[uint64]transport.ClientConn, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		c, err := transport.DialTCP(srv.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		conns[id] = c
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.Clients()) < len(cfg.ClientIDs) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range cfg.ClientIDs {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := RunWireClient(ctx, WireClientConfig{
				Config: cfg, ID: id, Input: inputs[id], DropBefore: NoDrop, Rand: rand.Reader,
			}, conns[id])
			if err != nil {
				t.Errorf("client %d: %v", id, err)
				return
			}
			// Every surviving client learns the same aggregate.
			want := wantSum(nil)
			for i := range want {
				if Center(got[i]) != want[i] {
					t.Errorf("client %d: coord %d = %d, want %d", id, i, Center(got[i]), want[i])
					return
				}
			}
		}()
	}
	sum, err := RunWireServer(ctx, WireServerConfig{Config: cfg, StageDeadline: 1500 * time.Millisecond}, srv)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	checkSum(t, sum, wantSum(nil))
}
