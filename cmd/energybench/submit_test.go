package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"energybench/internal/fleet"
)

// fakeCoordinator accepts one job and reports it finished from status
// poll finishAt on, recording when each poll arrived.
type fakeCoordinator struct {
	finishAt int
	mu       sync.Mutex
	polls    []time.Time
}

func (c *fakeCoordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		json.NewEncoder(w).Encode(map[string]any{"job_id": "j1", "trials": 1})
	case r.Method == http.MethodGet && r.URL.Path == "/jobs/j1":
		c.mu.Lock()
		c.polls = append(c.polls, time.Now())
		n := len(c.polls)
		c.mu.Unlock()
		st := fleet.JobStatus{ID: "j1", Trials: 1}
		if n >= c.finishAt {
			st.Finished, st.Done = true, 1
		}
		json.NewEncoder(w).Encode(st)
	default:
		http.NotFound(w, r)
	}
}

// submitWait runs `submit --wait` against c and returns its wall time.
func submitWait(t *testing.T, c *fakeCoordinator) time.Duration {
	t.Helper()
	srv := httptest.NewServer(c)
	defer srv.Close()
	path := filepath.Join(t.TempDir(), "job.yaml")
	if err := os.WriteFile(path, []byte("specs: [int-alu]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := cmdSubmit(context.Background(), []string{"--coordinator=" + srv.URL, "--campaign=" + path, "--wait"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// maxPollGap is the longest wait between two consecutive status polls.
func (c *fakeCoordinator) maxPollGap() time.Duration {
	var gap time.Duration
	for i := 1; i < len(c.polls); i++ {
		gap = max(gap, c.polls[i].Sub(c.polls[i-1]))
	}
	return gap
}

// TestSubmitWaitReportsFinishedJobPromptly: a job that finishes right
// after the first status poll is reported within 250 ms, where a fixed
// 500 ms poll interval took at least 500 ms.
func TestSubmitWaitReportsFinishedJobPromptly(t *testing.T) {
	c := &fakeCoordinator{finishAt: 2}
	if took := submitWait(t, c); took >= 250*time.Millisecond {
		t.Fatalf("submit --wait took %v for a job done after the first poll, want under 250ms", took)
	}
	if len(c.polls) != 2 {
		t.Fatalf("%d status polls, want 2", len(c.polls))
	}
	if gap := c.maxPollGap(); gap > 500*time.Millisecond {
		t.Fatalf("polls %v apart, want at most 500ms", gap)
	}
}

// TestSubmitWaitBacksOffToCeiling: on a longer job the poll interval grows
// to its 500 ms ceiling and no further. A gap also holds one status round
// trip on loopback, so it is checked against the next doubling (640 ms).
func TestSubmitWaitBacksOffToCeiling(t *testing.T) {
	c := &fakeCoordinator{finishAt: 8} // waits 10, 20, …, 320 ms, then 500 ms
	submitWait(t, c)
	if gap := c.maxPollGap(); gap < 500*time.Millisecond || gap >= 640*time.Millisecond {
		t.Fatalf("longest poll gap %v, want the 500ms ceiling", gap)
	}
}
