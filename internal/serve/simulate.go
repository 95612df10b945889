package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/replay"
)

// The simulate job type: POST /v1/simulate replays one trace through a set
// of library protocols with the trace-driven engine (internal/replay) and
// answers with the deterministic comparison report. The trace arrives
// inline as cctrace v1 text, or as a WorkloadSpec the server materializes —
// either way the result is a pure function of the request, so it enters the
// same content-addressed cache as verification verdicts (SimulateCacheKey),
// coalesces with identical in-flight runs, and obeys the same per-tenant
// admission control.

// maxSimulateBytes bounds a simulate request body. Inline traces are
// line-oriented text (~12 bytes per reference), so 16 MiB carries a trace
// of roughly 1.4M references.
const maxSimulateBytes = 16 << 20

// Simulation guardrails: the request shapes server-side work, so every
// dimension a client can grow is capped.
const (
	// maxSimulateOps bounds a server-generated workload's length.
	maxSimulateOps = 5_000_000
	// maxSimulateCaches bounds the simulated machine width.
	maxSimulateCaches = 64
	// maxSimulateBlocks bounds the distinct-block table (and with it the
	// per-protocol machine memory).
	maxSimulateBlocks = 1 << 16
	// maxSimulateProtocols bounds the fan-out width.
	maxSimulateProtocols = 16
)

// ErrSimulateRequest marks a simulate submission rejected for malformed
// input rather than admission pressure; the HTTP layer answers 400.
var ErrSimulateRequest = errors.New("serve: bad simulate request")

// SimOptions are the replay knobs that shape a simulation result and
// therefore participate in the cache key. Per-request execution knobs that
// cannot change a completed report (deadline, cache bypass) are excluded,
// exactly as in JobOptions.
type SimOptions struct {
	// BlockSize overrides the address→block granularity (0: the trace
	// header's blocksize, or 64).
	BlockSize int `json:"block_size,omitempty"`
	// MaxBlocks caps distinct blocks (0: 4096).
	MaxBlocks int `json:"max_blocks,omitempty"`
	// Capacity bounds blocks resident per cache, LRU-replaced (0:
	// unbounded).
	Capacity int `json:"capacity,omitempty"`
	// MaxOps replays at most this many references (0: the whole trace).
	MaxOps int64 `json:"max_ops,omitempty"`
	// Strict enables the CleanShared extension in the final invariants.
	Strict bool `json:"strict,omitempty"`
}

// normalize validates the options and canonicalizes defaults in place, so
// "omitted" and "explicit default" land on one cache entry.
func (o *SimOptions) normalize() error {
	if o.BlockSize < 0 {
		return fmt.Errorf("negative block_size %d", o.BlockSize)
	}
	if o.MaxBlocks < 0 || o.MaxBlocks > maxSimulateBlocks {
		return fmt.Errorf("max_blocks %d out of range [0, %d]", o.MaxBlocks, maxSimulateBlocks)
	}
	if o.MaxBlocks == 0 {
		o.MaxBlocks = replay.DefaultMaxBlocks
	}
	if o.Capacity < 0 {
		return fmt.Errorf("negative capacity %d", o.Capacity)
	}
	if o.MaxOps < 0 {
		return fmt.Errorf("negative max_ops %d", o.MaxOps)
	}
	return nil
}

// SimulateRequest is the body of POST /v1/simulate. Exactly one of Trace
// (inline cctrace v1 text) or Workload (a deterministic generator spec the
// server materializes) supplies the reference stream.
type SimulateRequest struct {
	// Trace is an inline cctrace v1 document. Plain text only: JSON strings
	// carry text, not bytes, so gzipped traces must be expanded client-side.
	Trace string `json:"trace,omitempty"`
	// Workload asks the server to materialize this spec instead of shipping
	// trace bytes. The spec's canonical rendering is the content identity,
	// so the cache key is independent of who generates the trace.
	Workload *replay.WorkloadSpec `json:"workload,omitempty"`
	// Protocols lists the library protocols to fan the trace out to, in
	// report order (empty: msi, mesi, moesi, dragon).
	Protocols []string `json:"protocols,omitempty"`
	SimOptions
	// TimeoutMS overrides the per-job deadline, capped by the server's
	// JobTimeout. Not part of the cache key: a deadline can only fail a
	// run, never change a completed report.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the cache read; the fresh report is still stored.
	NoCache bool `json:"no_cache,omitempty"`
}

// resolve validates the request in place (normalizing the options and the
// workload spec), resolves the protocol fan-out, and derives the trace
// identity the cache key digests. Every failure wraps ErrSimulateRequest.
func (req *SimulateRequest) resolve() (protos []*fsm.Protocol, names []string, identity string, err error) {
	badf := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrSimulateRequest}, args...)...)
	}
	if err := req.SimOptions.normalize(); err != nil {
		return nil, nil, "", badf("%v", err)
	}
	if len(req.Protocols) == 0 {
		req.Protocols = []string{"msi", "mesi", "moesi", "dragon"}
	}
	if len(req.Protocols) > maxSimulateProtocols {
		return nil, nil, "", badf("%d protocols exceeds the fan-out cap %d", len(req.Protocols), maxSimulateProtocols)
	}
	for _, name := range req.Protocols {
		p, perr := protocols.ByName(strings.TrimSpace(name))
		if perr != nil {
			return nil, nil, "", badf("%v", perr)
		}
		protos = append(protos, p)
		names = append(names, p.Name)
	}
	switch {
	case req.Trace != "" && req.Workload != nil:
		return nil, nil, "", badf("trace and workload are mutually exclusive")
	case req.Trace != "":
		if len(req.Trace) > maxSimulateBytes {
			return nil, nil, "", badf("trace exceeds %d bytes", maxSimulateBytes)
		}
		// The header's cache count sizes every lane's machine before the
		// first reference replays, so it is capped here like a workload's.
		// A malformed header is left to fail the job with its line number.
		if sc, serr := replay.NewScanner(strings.NewReader(req.Trace), replay.ScanOptions{}); serr == nil && sc.Meta().Caches > maxSimulateCaches {
			return nil, nil, "", badf("trace header caches %d exceeds the cap %d", sc.Meta().Caches, maxSimulateCaches)
		}
		sum := sha256.Sum256([]byte(req.Trace))
		identity = "trace:" + hex.EncodeToString(sum[:])
	case req.Workload != nil:
		if werr := req.Workload.Normalize(); werr != nil {
			return nil, nil, "", badf("%v", werr)
		}
		if req.Workload.Ops > maxSimulateOps {
			return nil, nil, "", badf("workload ops %d exceeds the cap %d", req.Workload.Ops, maxSimulateOps)
		}
		if req.Workload.Caches > maxSimulateCaches {
			return nil, nil, "", badf("workload caches %d exceeds the cap %d", req.Workload.Caches, maxSimulateCaches)
		}
		if req.Workload.Blocks > maxSimulateBlocks {
			return nil, nil, "", badf("workload blocks %d exceeds the cap %d", req.Workload.Blocks, maxSimulateBlocks)
		}
		identity = "workload:" + req.Workload.Canonical()
	default:
		return nil, nil, "", badf("request must set trace or workload")
	}
	return protos, names, identity, nil
}

// SubmitSimulate routes one simulation request through the shared admission
// pipeline: cache hit, coalesce onto an identical in-flight run, or admit a
// fresh replay job — under the same tenant rate, queue-share and shedding
// rules as verification. Simulate jobs are never forwarded to cluster peers
// on saturation (the trace bytes would have to travel with them), but peer
// cache fill still applies: the report carries schema and cache key, so a
// peer's cached comparison validates like any other result.
func (s *Server) SubmitSimulate(req *SimulateRequest, so SubmitOptions) (*Job, string, error) {
	s.stats.simRequests.Add(1)
	protos, names, identity, err := req.resolve()
	if err != nil {
		return nil, "", err
	}
	key := SimulateCacheKey(identity, names, req.SimOptions)
	return s.submit(submission{
		kind: jobSimulate,
		key:  key,
		runFn: func(ctx context.Context) ([]byte, bool, error) {
			return s.runSimulation(ctx, req, protos, key)
		},
	}, so)
}

// runSimulation executes one simulate job: obtain the reference stream
// (inline bytes or a materialized workload), fan it out to every requested
// protocol, and render the deterministic comparison report. A run stopped
// by budget or cancellation fails rather than caching a partial report; a
// run truncated by the request's own max_ops is complete by definition
// (max_ops is part of the key) and caches normally.
func (s *Server) runSimulation(ctx context.Context, req *SimulateRequest, protos []*fsm.Protocol, key string) ([]byte, bool, error) {
	var in io.Reader
	if req.Trace != "" {
		in = strings.NewReader(req.Trace)
	} else {
		var buf bytes.Buffer
		if _, err := replay.Materialize(&buf, *req.Workload); err != nil {
			return nil, false, err
		}
		in = &buf
	}
	opts := replay.Options{
		BlockSize: req.BlockSize,
		MaxBlocks: req.MaxBlocks,
		Capacity:  req.Capacity,
		MaxOps:    req.MaxOps,
		Strict:    req.Strict,
	}
	opts.Metrics = s.metrics
	cr, err := replay.Compare(ctx, in, protos, opts)
	if err != nil {
		return nil, false, err
	}
	for _, r := range cr.Results {
		if r.StopReason != nil {
			return nil, false, fmt.Errorf("serve: simulation stopped: %w", r.StopReason)
		}
	}
	rep := replay.NewReport(cr)
	rep.CacheKey = key
	payload, err := rep.Encode()
	if err != nil {
		return nil, false, err
	}
	return payload, true, nil
}

// handleSimulate is POST /v1/simulate: decode the request, route through
// the shared admission pipeline, and answer with the job status (optionally
// waiting for completion with ?wait=1) — the same contract as /v1/verify,
// with the comparison report in the report field.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSimulateBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	j, disposition, err := s.SubmitSimulate(&req, SubmitOptions{
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		NoCache: req.NoCache,
		Tenant:  r.Header.Get(TenantHeader),
	})
	if err != nil {
		if errors.Is(err, ErrSimulateRequest) {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("X-CC-Disposition", disposition)
	if wantWait(r) {
		awaitJob(r, j)
	}
	st, code := status(j, disposition)
	writeJSON(w, code, st)
}
