package main

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
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

// runNode runs dordis-node with args and returns its combined output,
// failing the test on a non-zero exit or after a minute.
func runNode(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dordis-node %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestSelftestSecAggLoopback runs the selftest role's SecAgg+XNoise round
// over loopback TCP with transcripts on: every client survives, one XNoise
// component is removed, and every client verifies the signed transcript.
func TestSelftestSecAggLoopback(t *testing.T) {
	out := runNode(t, "-role", "selftest", "-protocol", "secagg", "-tolerance", "1", "-transcript")
	for _, want := range []string{
		"round complete: survivors=[1 2 3 4 5] dropped=[]",
		"XNoise removed components: [1]",
		"transcript verified by 5/5 clients",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestSelftestLightSecAggLoopback runs the selftest role's LightSecAgg
// round over loopback TCP: clients 1..5 send constant vectors 1..5, so
// the exact aggregate is 15 in every coordinate.
func TestSelftestLightSecAggLoopback(t *testing.T) {
	out := runNode(t, "-role", "selftest", "-protocol", "lightsecagg")
	want := "lightsecagg round complete: per-coordinate mean 15.00"
	if !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}
