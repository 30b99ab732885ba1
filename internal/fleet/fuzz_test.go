package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"energybench/internal/harness"
)

// ingestFixture is a coordinator holding testCampaign's job with one batch
// leased to the posting agent and one leased to another agent.
func ingestFixture(t testing.TB) (c *Coordinator, jobID, poster string, own, other *Batch) {
	c = newTestCoordinator(t, nil)
	jobID = mustSubmit(t, c, testCampaign).JobID
	poster, rival := mustRegister(t, c, "host-poster"), mustRegister(t, c, "host-rival")
	var err error
	if own, err = c.Lease(poster, 0); err != nil || own == nil {
		t.Fatalf("Lease poster: %v, %v", own, err)
	}
	if other, err = c.Lease(rival, 0); err != nil || other == nil {
		t.Fatalf("Lease rival: %v, %v", other, err)
	}
	return c, jobID, poster, own, other
}

// ndjson encodes envelopes one per line.
func ndjson(envs ...ResultEnvelope) []byte {
	var b []byte
	for _, env := range envs {
		line, _ := json.Marshal(env)
		b = append(append(b, line...), '\n')
	}
	return b
}

// FuzzIngest posts arbitrary bodies to POST /agents/{id}/results. Whatever
// the body, nothing panics, the status is 200, 400 or 404, the job store
// holds only planned keys, every trial is in exactly one state, and a trial
// leased to the other agent changes state only through a result whose key
// matches it.
func FuzzIngest(f *testing.F) {
	// Job, agent and batch IDs are deterministic, so seeds built here name
	// the same job and batches as every fuzz iteration's fixture.
	_, _, _, own, other := ingestFixture(f)
	f.Add(ndjson(envelopesFor(own)...))
	f.Add(ndjson(envelopesFor(other)...))
	failed := envelopesFor(other)[0]
	failed.Result, failed.Error = nil, "worker child exited with signal: killed"
	f.Add(ndjson(failed))
	f.Add([]byte("{not json\n"))
	skewed := envelopesFor(own)[0]
	skewed.V = ProtocolVersion + 1
	f.Add(ndjson(skewed))

	f.Fuzz(func(t *testing.T, body []byte) {
		c, jobID, poster, _, other := ingestFixture(t)
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/agents/"+poster+"/results", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}

		c.mu.Lock()
		j := c.jobs[jobID]
		trials, states := j.trials, slices.Clone(j.state)
		c.mu.Unlock()
		planned := map[string]bool{}
		for _, tr := range trials {
			planned[tr.Key(j.camp.Meter)] = true
		}
		stored := map[string]bool{}
		for key := range jobKeys(t, c, jobID) {
			stripped := harness.StripHostKey(key)
			if !planned[stripped] {
				t.Errorf("store holds key %q, which no trial planned", key)
			}
			stored[stripped] = true
		}
		st, err := c.Status(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if n := st.Pending + st.Leased + st.Done + st.Failed; n != st.Trials {
			t.Errorf("pending %d + leased %d + done %d + failed %d = %d, want the %d trials",
				st.Pending, st.Leased, st.Done, st.Failed, n, st.Trials)
		}
		for _, tr := range other.Trials {
			switch states[tr.Seq] {
			case trialLeased:
			case trialDone:
				if !stored[tr.Key(j.camp.Meter)] {
					t.Errorf("the other agent's seq %d is done but its key is not stored", tr.Seq)
				}
			default:
				t.Errorf("the other agent's seq %d moved to state %d without a result for its key", tr.Seq, states[tr.Seq])
			}
		}
	})
}
