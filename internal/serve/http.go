package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/ckptio"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/protocols"
)

// maxRequestBytes bounds a verify request body; specs are small.
const maxRequestBytes = 1 << 20

// Request is the body of POST /v1/verify. Exactly one of Protocol (a
// library name) or Spec (inline ccpsl source) selects the protocol.
type Request struct {
	Protocol string `json:"protocol,omitempty"`
	Spec     string `json:"spec,omitempty"`
	JobOptions
	// TimeoutMS overrides the per-job deadline, capped by the server's
	// JobTimeout. Not part of the cache key: a deadline can only fail a
	// run, never change a completed verdict.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the cache read; the fresh result is still stored.
	NoCache bool `json:"no_cache,omitempty"`
}

// JobStatus is the service's job-facing response document, returned by
// POST /v1/verify, POST /v1/simulate, GET /v1/jobs/{id} and
// DELETE /v1/jobs/{id}.
type JobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheKey string `json:"cache_key"`
	// Cached: the report was served from the cache without an engine run.
	Cached bool `json:"cached,omitempty"`
	// Coalesced: this submission attached to an identical in-flight job.
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	// Report holds the verification report verbatim for done jobs.
	Report json.RawMessage `json:"report,omitempty"`
}

// errorDoc is the uniform error body.
type errorDoc struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/verify/batch", s.handleVerifyBatch)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST "+cluster.ComputePath, s.handleClusterCompute)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/graph", s.handleJobGraph)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	return mux
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the fixed document types; keep the contract.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

// writeStatus renders a job status with a status code, its report
// spliced in by appendJobStatus.
func writeStatus(w http.ResponseWriter, code int, st *JobStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(appendJobStatus(make([]byte, 0, rowOverhead+len(st.Error)+len(st.Report)), st))
}

// writeError renders the uniform error body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorDoc{Error: err.Error()})
}

// TenantHeader names the request header carrying the tenant identity for
// per-tenant admission control (see CanonicalTenant for how raw values are
// mapped).
const TenantHeader = "X-CC-Tenant"

// writeSubmitError maps a submission rejection to its HTTP response:
// every admission refusal (busy, rate limit, queue share, batch shed) is
// a 429 carrying Retry-After, drain is 503, anything else 500.
func writeSubmitError(w http.ResponseWriter, err error) {
	if secs, ok := retryAfterSeconds(err); ok {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// status renders a job's current JobStatus; disposition tags the
// submission path that produced this response ("" for plain polls).
func status(j *Job, disposition string) (JobStatus, int) {
	state, cached, errText, payload := j.snapshot()
	st := JobStatus{
		ID:        j.ID,
		State:     state,
		CacheKey:  j.CacheKey,
		Cached:    cached,
		Coalesced: disposition == DispositionCoalesced,
		Error:     errText,
		Report:    payload,
	}
	code := http.StatusOK
	if state == StateQueued || state == StateRunning {
		code = http.StatusAccepted
	}
	return st, code
}

// wantWait reports the ?wait=1 polling-free mode.
func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// writeSubmitted answers an accepted submission: the X-CC-Disposition
// header, the ?wait=1 wait for a terminal state, then the job status.
func writeSubmitted(w http.ResponseWriter, r *http.Request, j *Job, disposition string) {
	w.Header().Set("X-CC-Disposition", disposition)
	if wantWait(r) {
		await(r.Context(), j)
	}
	st, code := status(j, disposition)
	writeStatus(w, code, &st)
}

// handleVerify is POST /v1/verify: resolve the spec, route through cache /
// dedup / admission, and answer with the job status (optionally waiting
// for completion with ?wait=1).
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	p, canonical, err := ResolveSpec(req.Protocol, req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts := req.JobOptions
	if err := opts.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond

	j, disposition, err := s.SubmitEx(p, canonical, opts, SubmitOptions{
		Timeout: timeout,
		NoCache: req.NoCache,
		Tenant:  r.Header.Get(TenantHeader),
	})
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeSubmitted(w, r, j, disposition)
}

// handleJobGet is GET /v1/jobs/{id}, with the same ?wait=1 contract as
// verify.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	if wantWait(r) {
		await(r.Context(), j)
	}
	st, code := status(j, "")
	writeStatus(w, code, &st)
}

// handleJobCancel is DELETE /v1/jobs/{id}: cancel a queued or running job.
// Terminal jobs are unaffected; the response is the job's resulting state
// either way.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	j.Cancel()
	st, code := status(j, "")
	writeStatus(w, code, &st)
}

// protocolsDoc is the GET /v1/protocols body.
type protocolsDoc struct {
	Protocols []string `json:"protocols"`
}

// handleProtocols lists the built-in protocol library.
func (s *Server) handleProtocols(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, protocolsDoc{Protocols: protocols.Names()})
}

// handleHealthz reports liveness: 200 while serving, 503 while draining so
// load balancers stop routing to a terminating instance.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleStatsz serves the service counters.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics is GET /v1/metrics: the full observability-registry
// snapshot (service counters, per-protocol verify_latency_seconds.*
// histograms, and the engine counters of every verification run).
// ?scope=cluster widens it to a fleet rollup: every reachable peer's
// snapshot is scraped and merged into this node's (counters and gauges
// sum, histograms merge bucket-wise), with unreachable peers reported
// alongside instead of failing the rollup.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("scope") != "cluster" {
		writeJSON(w, http.StatusOK, s.metrics.Snapshot())
		return
	}
	doc := ClusterMetricsDoc{
		Scope:      "cluster",
		NodesTotal: 1,
		NodesOK:    1,
		Metrics:    s.metrics.Snapshot(),
	}
	if s.cluster != nil {
		for _, pm := range s.cluster.ScrapePeerMetrics(r.Context()) {
			doc.NodesTotal++
			if pm.Err != "" {
				doc.Unreachable = append(doc.Unreachable, UnreachablePeer{Addr: pm.Addr, Err: pm.Err})
				continue
			}
			doc.NodesOK++
			doc.Metrics.Merge(pm.Snapshot)
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// ClusterMetricsDoc is the GET /v1/metrics?scope=cluster body: the merged
// fleet snapshot plus scrape coverage, so a reader can tell a full rollup
// from a degraded one.
type ClusterMetricsDoc struct {
	Scope      string `json:"scope"`
	NodesTotal int    `json:"nodes_total"`
	NodesOK    int    `json:"nodes_ok"`
	// Unreachable lists peers whose snapshot could not be scraped; their
	// counters are missing from Metrics.
	Unreachable []UnreachablePeer `json:"unreachable,omitempty"`
	Metrics     obs.Snapshot      `json:"metrics"`
}

// UnreachablePeer is one failed scrape in a cluster metrics rollup.
type UnreachablePeer struct {
	Addr string `json:"addr"`
	Err  string `json:"error"`
}

// handleCacheGet is GET /v1/cache/{key}, the cluster-internal peer
// cache-fill endpoint: serve the cached report bytes for a content-address
// key, wrapped in the CRC32 ckptio envelope so the caller can verify
// integrity end to end. 404 means "not cached here" — never an error; the
// asking node just computes locally. The key is validated strictly before
// use because the disk cache tier maps keys to file names: anything but a
// lowercase SHA-256 hex string is rejected, closing path traversal by
// construction. Cache reads keep working during drain — handing out
// already-computed results costs nothing and helps the survivors.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if err := cluster.ValidateKey(key); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	payload, hit, _ := s.cache.Get(key)
	if !hit {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: key not cached"))
		return
	}
	s.stats.peerServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(ckptio.Encode(payload))
}
