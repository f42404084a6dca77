package engine

import (
	"errors"
	"strings"
	"testing"
)

// twoStepClient is a client sequence of two stages: it opens the round
// with its id, then answers stage 1's message with fail's result or echo.
func twoStepClient(id uint64, cc ClientCarrier, dropBefore int, fail error) (bool, error) {
	return RunClient(cc, id, []ClientStep{
		{Stage: 0, Op: "hello", Run: func(any) (any, error) { return id, nil }},
		{Stage: 1, Op: "echo", Run: func(in any) (any, error) {
			if fail != nil {
				return nil, fail
			}
			return in, nil
		}},
	}, dropBefore)
}

// TestInProcDropAndClientFailure: a client scheduled to drop before stage
// 1 is not expected there, and another client's stage-1 failure aborts
// the round with that client's error.
func TestInProcDropAndClientFailure(t *testing.T) {
	ids := []uint64{1, 2, 3}
	drops := DropSchedule[int]{3: 1}
	boom := errors.New("boom")
	for _, failing := range []bool{false, true} {
		p := NewInProc(ids, 2, drops.Participates)
		for _, id := range ids {
			id := id
			p.Go(id, func(cc ClientCarrier) error {
				var fail error
				if failing && id == 2 {
					fail = boom
				}
				_, err := twoStepClient(id, cc, drops.Before(id), fail)
				return err
			})
		}
		var hello, echo []uint64
		err := p.Collect(Stage{Tag: 0, Expect: ids, Apply: func(from uint64, _ any) error {
			hello = append(hello, from)
			return nil
		}})
		if err == nil {
			_ = p.Send(1, ids, "ping")
			err = p.Collect(Stage{Tag: 1, Expect: ids, Apply: func(from uint64, body any) error {
				if body != "ping" {
					t.Errorf("client %d echoed %v", from, body)
				}
				echo = append(echo, from)
				return nil
			}})
		}
		p.Close()

		if len(hello) != 3 {
			t.Fatalf("stage 0 admitted %v, want all three", hello)
		}
		if failing {
			if !errors.Is(err, boom) || !strings.Contains(err.Error(), "client 2 echo") {
				t.Fatalf("failing round: err = %v, want client 2's boom", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(echo) != 2 {
			t.Fatalf("stage 1 admitted %v, want clients 1 and 2 (3 dropped)", echo)
		}
	}
}

// TestRunClientDropBeforeFirstStage: a client that drops before the
// first stage sends nothing at all.
func TestRunClientDropBeforeFirstStage(t *testing.T) {
	p := NewInProc([]uint64{1}, 2, func(uint64, int) bool { return true })
	dropped, err := twoStepClient(1, &inProcClient{id: 1, inbox: p.inboxes[1], uplink: p.uplink}, 0, nil)
	if err != nil || !dropped {
		t.Fatalf("dropped = %v, err = %v; want a clean drop", dropped, err)
	}
	if len(p.uplink) != 0 {
		t.Fatalf("%d messages sent by a client that dropped before stage 0", len(p.uplink))
	}
}
