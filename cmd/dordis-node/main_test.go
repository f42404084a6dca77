package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// The smoke tests run dordis-node as a child process: the test binary
// re-executes itself with runMainEnv set, and TestMain then hands the
// arguments to main, so flag parsing, config building and the exit path
// all run as they do for an operator.
const runMainEnv = "DORDIS_NODE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// node is one dordis-node child process running in the background.
type node struct {
	args []string
	mu   sync.Mutex
	out  bytes.Buffer
	done chan struct{}
	err  error
}

// startNode starts dordis-node with args. The process is killed when the
// test ends or after two minutes, whichever comes first.
func startNode(t *testing.T, args ...string) *node {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	n := &node{args: args, done: make(chan struct{})}
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stdout, cmd.Stderr = n, n
	if err := cmd.Start(); err != nil {
		cancel()
		t.Fatal(err)
	}
	go func() {
		n.err = cmd.Wait()
		close(n.done)
	}()
	t.Cleanup(func() {
		cancel()
		<-n.done
	})
	return n
}

func (n *node) Write(p []byte) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.out.Write(p)
}

func (n *node) output() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.out.String()
}

// listenRE matches the loopback address a server-side role prints at
// startup.
var listenRE = regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)

// addr waits for the node to print the address it listens on.
func (n *node) addr(t *testing.T) string {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if m := listenRE.FindStringSubmatch(n.output()); m != nil {
			return m[1]
		}
		select {
		case <-n.done:
			t.Fatalf("dordis-node %s exited before listening: %v\n%s",
				strings.Join(n.args, " "), n.err, n.output())
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("dordis-node %s printed no listen address:\n%s", strings.Join(n.args, " "), n.output())
	return ""
}

// wait waits for the node to exit and returns its combined output,
// failing the test on a non-zero exit.
func (n *node) wait(t *testing.T) string {
	t.Helper()
	<-n.done
	if n.err != nil {
		t.Fatalf("dordis-node %s: %v\n%s", strings.Join(n.args, " "), n.err, n.output())
	}
	return n.output()
}

// runNode runs dordis-node with args and returns its combined output,
// failing the test on a non-zero exit.
func runNode(t *testing.T, args ...string) string {
	t.Helper()
	return startNode(t, args...).wait(t)
}

// wantAll fails the test for every want missing from out.
func wantAll(t *testing.T, who, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("%s output lacks %q:\n%s", who, want, out)
		}
	}
}

// TestSelftestSecAggLoopback runs the selftest role's SecAgg+XNoise round
// over loopback TCP with transcripts on: every client survives, one XNoise
// component is removed, and every client verifies the signed transcript.
func TestSelftestSecAggLoopback(t *testing.T) {
	out := runNode(t, "-role", "selftest", "-protocol", "secagg", "-tolerance", "1", "-transcript")
	wantAll(t, "selftest", out,
		"round complete: survivors=[1 2 3 4 5] dropped=[]",
		"XNoise removed components: [1]",
		"transcript verified by 5/5 clients",
	)
}

// TestSelftestLightSecAggLoopback runs the selftest role's LightSecAgg
// round over loopback TCP: clients 1..5 send constant vectors 1..5, so
// the exact aggregate is 15 in every coordinate.
func TestSelftestLightSecAggLoopback(t *testing.T) {
	out := runNode(t, "-role", "selftest", "-protocol", "lightsecagg")
	wantAll(t, "selftest", out, "lightsecagg round complete: per-coordinate mean 15.00")
}

// runFlat runs a flat server process and one client process per id in
// 1..5 (client i sends the constant vector i), with serverArgs appended
// to the server's flags, clientArgs(id) to each client's and common to
// both. It waits for the server and returns its output with the client
// processes.
func runFlat(t *testing.T, common, serverArgs []string, clientArgs func(id uint64) []string) (string, map[uint64]*node) {
	t.Helper()
	srv := startNode(t, append(append([]string{"-role", "server", "-listen", "127.0.0.1:0"},
		common...), serverArgs...)...)
	addr := srv.addr(t)
	clients := map[uint64]*node{}
	for id := uint64(1); id <= 5; id++ {
		args := append([]string{"-role", "client", "-connect", addr,
			"-id", fmt.Sprint(id), "-value", fmt.Sprint(id)}, common...)
		clients[id] = startNode(t, append(args, clientArgs(id)...)...)
	}
	return srv.wait(t), clients
}

func noArgs(uint64) []string { return nil }

// TestFlatServiceResumes runs a two-round flat service per substrate as
// separate processes: both rounds complete with every client, and with
// -key-rounds 3 the second round resumes the first round's keys.
func TestFlatServiceResumes(t *testing.T) {
	for _, tc := range []struct {
		protocol string
		round    string // the server's per-round result line
	}{
		{"secagg", "round complete: survivors=[1 2 3 4 5] dropped=[]"},
		{"lightsecagg", "lightsecagg round complete: per-coordinate mean 15.00"},
	} {
		t.Run(tc.protocol, func(t *testing.T) {
			common := []string{"-protocol", tc.protocol, "-rounds", "2"}
			out, clients := runFlat(t, common, []string{"-key-rounds", "3"}, noArgs)
			if n := strings.Count(out, tc.round); n != 2 {
				t.Errorf("server completed %d of 2 rounds:\n%s", n, out)
			}
			wantAll(t, "server", out, "round 2 (resumed, ratchet 1)")
			for id, c := range clients {
				wantAll(t, fmt.Sprintf("client %d", id), c.wait(t),
					fmt.Sprintf("client %d round 2 (resumed, ratchet 1): complete", id))
			}
		})
	}
}

// TestSingleRoundSessionClientSurvives runs a -rounds 1 server whose
// client 1 keeps its session in -session-dir: the server and every
// client must agree on running the handshake, so no client drops.
func TestSingleRoundSessionClientSurvives(t *testing.T) {
	dir := t.TempDir()
	out, clients := runFlat(t, []string{"-rounds", "1"}, nil, func(id uint64) []string {
		if id == 1 {
			return []string{"-session-dir", dir}
		}
		return nil
	})
	wantAll(t, "server", out, "round complete: survivors=[1 2 3 4 5] dropped=[]")
	if t.Failed() {
		return
	}
	for _, c := range clients {
		c.wait(t)
	}
}

// TestShardtestLoopback runs the shardtest role's two-shard topology over
// loopback TCP in one process: both shards fold into the combiner.
func TestShardtestLoopback(t *testing.T) {
	out := runNode(t, "-role", "shardtest", "-shards", "2", "-clients", "1,2,3,4,5,6,7,8")
	wantAll(t, "shardtest", out, "complete: shards=[0 1]")
}

// TestShardedServiceResumes runs the sharded topology as separate
// processes — a combiner, two shard aggregators and eight clients — for
// two rounds: both rounds fold both shards, and each shard resumes its
// sub-roster's keys in round 2.
func TestShardedServiceResumes(t *testing.T) {
	const roster = "1,2,3,4,5,6,7,8"
	common := []string{"-shards", "2", "-rounds", "2", "-clients", roster}
	comb := startNode(t, append([]string{"-role", "combiner", "-listen", "127.0.0.1:0",
		"-combine-deadline", "30s"}, common...)...)
	combAddr := comb.addr(t)
	var shards []*node
	var addrs []string
	for s := 0; s < 2; s++ {
		sh := startNode(t, append([]string{"-role", "shard", "-shard-id", fmt.Sprint(s),
			"-listen", "127.0.0.1:0", "-combiner-addr", combAddr, "-key-rounds", "3",
			"-combine-deadline", "30s"}, common...)...)
		shards = append(shards, sh)
		addrs = append(addrs, sh.addr(t))
	}
	ids, err := parseIDs(roster)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewShardPlan(ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	var clients []*node
	for _, id := range ids {
		clients = append(clients, startNode(t, append([]string{"-role", "client",
			"-connect", addrs[plan.ShardOf(id)], "-id", fmt.Sprint(id)}, common...)...))
	}
	for s, sh := range shards {
		wantAll(t, fmt.Sprintf("shard %d", s), sh.wait(t), "round 2 (resumed, ratchet 1)")
	}
	wantAll(t, "combiner", comb.wait(t), "round 1: complete: shards=[0 1]", "round 2: complete: shards=[0 1]")
	for _, c := range clients {
		c.wait(t)
	}
}
