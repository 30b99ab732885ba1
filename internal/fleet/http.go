package fleet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"energybench/internal/harness"
	"energybench/internal/model"
	"energybench/internal/store"
)

// maxBodyBytes bounds any single request body (campaign files are small;
// result streams post at most one batch of results per request).
const maxBodyBytes = 64 << 20

// retryAfter is the poll hint returned with an empty lease.
const retryAfter = 500 * time.Millisecond

// Handler exposes the coordinator's HTTP/JSON API:
//
//	POST /jobs                    submit a campaign file (YAML/JSON body)
//	GET  /jobs                    list job statuses
//	GET  /jobs/{id}               one job's status
//	GET  /jobs/{id}/results       stream merged store records as NDJSON
//	GET  /jobs/{id}/analyze       analysis report over the job's merged store
//	                              (?activity=nominal|counters&validate=1&roofline=1)
//	GET  /agents                  list registered agents
//	POST /agents/register         agent registration
//	POST /agents/{id}/heartbeat   agent liveness
//	POST /agents/{id}/lease       request a trial batch
//	POST /agents/{id}/results     post a batch's result envelopes as NDJSON
//	                              (?next=MAX: and lease the next batch)
//
// Every error response is a JSON object {"error": "..."}; unknown agents get
// 404 and must re-register (coordinator restarts forget agent IDs).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", c.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{id}/results", c.handleResults)
	mux.HandleFunc("GET /jobs/{id}/analyze", c.handleAnalyze)
	mux.HandleFunc("GET /agents", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Agents())
	})
	mux.HandleFunc("POST /agents/register", c.handleRegister)
	mux.HandleFunc("POST /agents/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Heartbeat(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /agents/{id}/lease", c.handleLease)
	mux.HandleFunc("POST /agents/{id}/results", c.handleIngest)
	return http.MaxBytesHandler(mux, maxBodyBytes)
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
		return
	}
	resp, err := c.Submit(raw)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: decoding registration: %v", ErrBadRequest, err))
		return
	}
	if req.V > ProtocolVersion {
		writeError(w, fmt.Errorf("%w: agent protocol v%d is newer than coordinator v%d", ErrBadRequest, req.V, ProtocolVersion))
		return
	}
	resp, err := c.Register(req.Host)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: decoding lease request: %v", ErrBadRequest, err))
		return
	}
	if req.V > ProtocolVersion {
		writeError(w, fmt.Errorf("%w: agent protocol v%d is newer than coordinator v%d", ErrBadRequest, req.V, ProtocolVersion))
		return
	}
	g, err := c.grant(r.PathValue("id"), req.Max)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, leaseResponse{V: ProtocolVersion, grant: g})
}

// grant leases the agent up to max trials, as a lease request does.
func (c *Coordinator) grant(agentID string, max int) (grant, error) {
	b, err := c.Lease(agentID, max)
	if err != nil || b != nil {
		return grant{Batch: b}, err
	}
	return grant{RetryAfter: retryAfter}, nil
}

// handleIngest processes one NDJSON stream of result envelopes. The whole
// post is validated line by line; the first malformed or version-skewed
// envelope aborts with a structured 400 (everything accepted before it
// stays accepted — agents retry idempotently). A post with ?next=MAX asks
// for the agent's next batch too: once the whole stream is ingested, the
// response carries the grant a lease request for MAX trials would have,
// so a busy agent makes one request per batch. Without it no batch is
// granted, so an agent that does not read the grant never holds a lease
// it does not know about.
func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	agentID := r.PathValue("id")
	q := r.URL.Query()
	next, err := strconv.Atoi(q.Get("next"))
	if q.Has("next") && err != nil {
		writeError(w, fmt.Errorf("%w: next=%q is not a trial count", ErrBadRequest, q.Get("next")))
		return
	}
	// A result post is proof of liveness: refresh the agent's heartbeat (and
	// reject unknown agents before touching the stream).
	if err := c.Heartbeat(agentID); err != nil {
		writeError(w, err)
		return
	}
	resp := ingestResponse{V: ProtocolVersion}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), maxBodyBytes)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var env ResultEnvelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			writeError(w, fmt.Errorf("%w: results line %d: %v", ErrBadRequest, line, err))
			return
		}
		st, err := c.Ingest(agentID, env)
		if err != nil {
			writeError(w, fmt.Errorf("results line %d: %w", line, err))
			return
		}
		switch st {
		case ingestAccepted:
			resp.Accepted++
		case ingestDuplicate:
			resp.Dups++
		case ingestStale:
			resp.Stale++
		}
	}
	if err := sc.Err(); err != nil {
		writeError(w, fmt.Errorf("%w: reading results stream: %v", ErrBadRequest, err))
		return
	}
	if q.Has("next") {
		g, err := c.grant(agentID, next)
		if err != nil {
			writeError(w, err)
			return
		}
		resp.grant = g
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResults streams the job's merged store as NDJSON, one store.Record
// per line — the same record shape the store persists, so a consumer can
// pipe the stream straight into a local store file. A fresh read-only
// handle is opened per request, keeping the coordinator's own appender
// single-goroutine.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	path, err := c.ResultsPath(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := store.Open(path)
	if err != nil {
		writeError(w, fmt.Errorf("fleet: opening job store: %w", err))
		return
	}
	defer st.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for rec, qerr := range st.Query(store.Filter{}) {
		if qerr != nil {
			// Headers are gone; the best we can do is truncate the stream.
			c.logf("fleet: streaming job results: %v", qerr)
			return
		}
		if err := enc.Encode(rec); err != nil {
			return // client went away
		}
	}
}

// handleAnalyze fits the power model over the job's merged store and returns
// the same analysis document the local `analyze` subcommand prints, so a
// submitter never has to download a store just to see the fit. Query
// parameters mirror the CLI flags: activity=nominal|counters selects the
// activity source; validate=1/roofline=1 require the external-workload
// sections (otherwise they appear automatically when workload results exist).
func (c *Coordinator) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	path, err := c.ResultsPath(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	boolParam := func(name string) (bool, error) {
		switch v := r.URL.Query().Get(name); v {
		case "", "0", "false":
			return false, nil
		case "1", "true":
			return true, nil
		default:
			return false, fmt.Errorf("%w: %s=%q (want 1|true|0|false)", ErrBadRequest, name, v)
		}
	}
	opts := model.ReportOptions{Activity: r.URL.Query().Get("activity")}
	if opts.Validate, err = boolParam("validate"); err != nil {
		writeError(w, err)
		return
	}
	if opts.Roofline, err = boolParam("roofline"); err != nil {
		writeError(w, err)
		return
	}
	st, err := store.Open(path)
	if err != nil {
		writeError(w, fmt.Errorf("fleet: opening job store: %w", err))
		return
	}
	defer st.Close()
	var results []harness.Result
	for rec, qerr := range st.Query(store.Filter{}) {
		if qerr != nil {
			writeError(w, fmt.Errorf("fleet: reading job store: %w", qerr))
			return
		}
		results = append(results, rec.Result)
	}
	rep, err := model.BuildReport(results, opts)
	if err != nil {
		// Analysis failures reflect what the job's store holds (too few
		// observations, nothing to validate), not a coordinator fault.
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrUnknownAgent):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}
