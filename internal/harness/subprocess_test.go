package harness

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"energybench/internal/bench"
)

// shWorker builds a Subprocess executor whose "worker" is a shell script,
// so the protocol (envelope parsing, crash detection, timeouts) is testable
// without building the real CLI binary.
func shWorker(t *testing.T, script string) *Subprocess {
	t.Helper()
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh on this platform")
	}
	return &Subprocess{Binary: "/bin/sh", Args: []string{"-c", script}}
}

func fakeTrial(name string) Trial {
	return Trial{Spec: bench.Spec{Name: name}, Threads: 1, Placement: PlaceNone, MinReps: 1, MaxReps: 1}
}

func TestSubprocessDecodesResultEnvelope(t *testing.T) {
	e := shWorker(t, `cat >/dev/null; echo '{"v":1,"result":{"spec":"echoed","threads":3,"placement":"none","meter":"mock"}}'`)
	res, err := e.Execute(context.Background(), fakeTrial("x"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec != "echoed" || res.Threads != 3 || res.Meter != "mock" {
		t.Errorf("decoded result %+v, want the envelope's fields", res)
	}
}

func TestSubprocessForwardsTrialOnStdin(t *testing.T) {
	// The worker echoes the spec name it read from stdin back through the
	// result, proving the trial actually crosses the process boundary.
	e := shWorker(t, `in=$(cat); case "$in" in *round-trip*) echo '{"v":1,"result":{"spec":"saw-round-trip"}}';; *) echo '{"v":1,"error":"trial not received"}';; esac`)
	res, err := e.Execute(context.Background(), fakeTrial("round-trip"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec != "saw-round-trip" {
		t.Errorf("worker did not see the serialized trial: %+v", res)
	}
}

func TestSubprocessErrorEnvelope(t *testing.T) {
	e := shWorker(t, `cat >/dev/null; echo '{"v":1,"error":"meter exploded"}'; exit 1`)
	_, err := e.Execute(context.Background(), fakeTrial("x"))
	if err == nil || !strings.Contains(err.Error(), "meter exploded") {
		t.Errorf("err = %v, want the worker's structured message", err)
	}
}

func TestSubprocessCrashSurfacesExitAndStderr(t *testing.T) {
	e := shWorker(t, `cat >/dev/null; echo "boom diagnostics" >&2; exit 3`)
	_, err := e.Execute(context.Background(), fakeTrial("x"))
	if err == nil {
		t.Fatal("want an error for a crashed worker")
	}
	for _, want := range []string{"worker crashed", "exit status 3", "boom diagnostics"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("crash error %q missing %q", err, want)
		}
	}
}

func TestSubprocessSIGKILLedWorker(t *testing.T) {
	e := shWorker(t, `cat >/dev/null; kill -9 $$`)
	_, err := e.Execute(context.Background(), fakeTrial("x"))
	if err == nil || !strings.Contains(err.Error(), "worker crashed") {
		t.Errorf("err = %v, want a crash error for a SIGKILLed worker", err)
	}
}

func TestSubprocessMalformedEnvelope(t *testing.T) {
	e := shWorker(t, `cat >/dev/null; echo 'this is not json'`)
	_, err := e.Execute(context.Background(), fakeTrial("x"))
	if err == nil || !strings.Contains(err.Error(), "malformed envelope") {
		t.Errorf("err = %v, want a malformed-envelope error", err)
	}
}

func TestSubprocessEmptyEnvelope(t *testing.T) {
	e := shWorker(t, `cat >/dev/null; echo '{"v":1}'`)
	_, err := e.Execute(context.Background(), fakeTrial("x"))
	if err == nil || !strings.Contains(err.Error(), "neither result nor error") {
		t.Errorf("err = %v, want a neither-result-nor-error protocol error", err)
	}
}

func TestSubprocessRejectsResultAndError(t *testing.T) {
	e := shWorker(t, `cat >/dev/null; echo '{"v":1,"result":{"spec":"x"},"error":"meter exploded"}'`)
	_, err := e.Execute(context.Background(), fakeTrial("x"))
	if err == nil || !strings.Contains(err.Error(), "both a result and an error") {
		t.Errorf("err = %v, want a both-result-and-error protocol error", err)
	}
}

func TestSubprocessRejectsNewerProtocol(t *testing.T) {
	e := shWorker(t, `cat >/dev/null; echo '{"v":99,"result":{"spec":"x"}}'`)
	_, err := e.Execute(context.Background(), fakeTrial("x"))
	if err == nil || !strings.Contains(err.Error(), "protocol v99") {
		t.Errorf("err = %v, want a protocol-version error", err)
	}
}

func TestSubprocessTimeoutKillsWorker(t *testing.T) {
	e := shWorker(t, `sleep 30`)
	e.Timeout = 100 * time.Millisecond
	start := time.Now()
	_, err := e.Execute(context.Background(), fakeTrial("x"))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err = %v, want a timeout error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v; the child was not killed promptly", elapsed)
	}
}

func TestSubprocessContextCancellation(t *testing.T) {
	e := shWorker(t, `sleep 30`)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := e.Execute(ctx, fakeTrial("x"))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestSubprocessNoBinary(t *testing.T) {
	e := &Subprocess{}
	if _, err := e.Execute(context.Background(), fakeTrial("x")); err == nil {
		t.Error("want an error when no binary is configured")
	}
}
