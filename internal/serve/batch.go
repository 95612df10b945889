package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ccpsl"
	"repro/internal/cluster"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

// POST /v1/verify/batch: many verifications in one request, streamed back
// as NDJSON — one line per finished job (in completion order, not request
// order; lines carry the request index) and a trailing summary line. The
// job list is explicit (jobs) or expanded server-side from a sweep spec
// (protocols × optional mutation catalog). On a cluster, each job is
// routed by its content address: jobs this node does not own are forwarded
// to their owners, with a straggler re-dispatch to the local pool when an
// owner sits on a job past the adaptive hedge deadline. Every job is
// retried with jittered backoff on transient rejections before being
// reported failed, so one sick peer degrades throughput, not results.

// maxBatchRequestBytes bounds a batch request body; inline specs are
// small, and a sweep spec is tiny.
const maxBatchRequestBytes = 8 << 20

// maxBatchJobs bounds one request's expanded job count.
const maxBatchJobs = 4096

// BatchRequest is the body of POST /v1/verify/batch. At least one of Jobs
// and Sweep must be present; both together concatenate (Jobs first).
type BatchRequest struct {
	// Jobs lists explicit verification requests (same shape as
	// POST /v1/verify bodies; per-request TimeoutMS/NoCache are ignored in
	// favor of the batch-level settings).
	Jobs []Request `json:"jobs,omitempty"`
	// Sweep expands server-side into one job per protocol (× mutant).
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// TimeoutMS caps each job's wall clock, bounded by the server's
	// JobTimeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses cache reads for every job (results are still
	// stored).
	NoCache bool `json:"no_cache,omitempty"`
}

// SweepSpec is the server-side batch expansion: the named library
// protocols (all of them when empty), each verified under the embedded
// engine options, optionally joined by every mutant from the mutation
// catalog (the paper's fault-injection experiment as one request).
type SweepSpec struct {
	Protocols []string `json:"protocols,omitempty"`
	JobOptions
	// Mutants adds the mutation catalog of every swept protocol. Mutants
	// detectable only by the strict extension check are included only when
	// the sweep options set strict.
	Mutants bool `json:"mutants,omitempty"`
}

// Batch job dispositions, reported per job in the NDJSON stream. They
// name how the verdict was obtained, which is exactly what an operator
// debugging a slow or degraded batch needs to see.
const (
	BatchCached    = "cached"    // local cache hit
	BatchComputed  = "computed"  // ran on this node's pool
	BatchForwarded = "forwarded" // computed by (or cached on) a peer
	BatchRetried   = "retried"   // succeeded after at least one retry
	BatchFailed    = "failed"    // no attempt produced a verdict
)

// BatchLine is one NDJSON result line.
type BatchLine struct {
	Index       int    `json:"index"`
	Protocol    string `json:"protocol"`
	CacheKey    string `json:"cache_key"`
	State       string `json:"state"` // done | failed
	Disposition string `json:"disposition"`
	Attempts    int    `json:"attempts"`
	Error       string `json:"error,omitempty"`
	// Report is the verification report verbatim (absent on failure).
	Report json.RawMessage `json:"report,omitempty"`
}

// BatchSummary is the final NDJSON line: per-disposition counts and the
// failure total, so a client can assert batch health without parsing
// every line.
type BatchSummary struct {
	Summary      bool           `json:"summary"`
	Total        int            `json:"total"`
	Done         int            `json:"done"`
	Failed       int            `json:"failed"`
	Dispositions map[string]int `json:"dispositions"`
}

// batchJob is one expanded, spec-resolved batch entry.
type batchJob struct {
	Index     int
	Protocol  string // display name
	Proto     *fsm.Protocol
	Canonical string
	Opts      JobOptions
	Key       string
}

// expandBatch resolves a batch request into its job list, validating
// every spec up front: a batch with one malformed entry is rejected whole
// before any work starts, which is far cheaper to debug than a stream
// that fails halfway.
func (s *Server) expandBatch(req *BatchRequest) ([]batchJob, error) {
	var out []batchJob
	add := func(name string, p *fsm.Protocol, canonical string, opts JobOptions) error {
		if err := opts.normalize(); err != nil {
			return err
		}
		if len(out) >= maxBatchJobs {
			return fmt.Errorf("serve: batch expands past %d jobs", maxBatchJobs)
		}
		out = append(out, batchJob{
			Index:     len(out),
			Protocol:  name,
			Proto:     p,
			Canonical: canonical,
			Opts:      opts,
			Key:       CacheKey(canonical, opts),
		})
		return nil
	}
	for i, jr := range req.Jobs {
		p, canonical, err := ResolveSpec(jr.Protocol, jr.Spec)
		if err != nil {
			return nil, fmt.Errorf("serve: batch job %d: %w", i, err)
		}
		if err := add(p.Name, p, canonical, jr.JobOptions); err != nil {
			return nil, fmt.Errorf("serve: batch job %d: %w", i, err)
		}
	}
	if sw := req.Sweep; sw != nil {
		names := sw.Protocols
		if len(names) == 0 {
			names = protocols.Names()
		}
		sort.Strings(names)
		for _, name := range names {
			p, err := protocols.ByName(name)
			if err != nil {
				return nil, fmt.Errorf("serve: batch sweep: %w", err)
			}
			if err := add(p.Name, p, ccpsl.Format(p), sw.JobOptions); err != nil {
				return nil, err
			}
			if !sw.Mutants {
				continue
			}
			for _, m := range mutate.Catalog(p) {
				// Mutant names carry "!" as the catalog's visual marker;
				// ccpsl identifiers only allow "-", and the canonical spec
				// must round-trip through the parser on a forwarding peer.
				m.Protocol.Name = strings.ReplaceAll(m.Protocol.Name, "!", "-")
				if err := add(m.Protocol.Name, m.Protocol, ccpsl.Format(m.Protocol), sw.JobOptions); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: batch request expands to no jobs")
	}
	return out, nil
}

// handleVerifyBatch is POST /v1/verify/batch.
func (s *Server) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchRequestBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad batch request: %w", err))
		return
	}
	jobs, err := s.expandBatch(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tenant := CanonicalTenant(r.Header.Get(TenantHeader))
	// One token per expanded job, charged before any work: a batch is not
	// a rate-limit loophole.
	if ok, after := s.buckets.take(tenant, float64(len(jobs))); !ok {
		s.stats.rateLimited.Add(1)
		s.metrics.Counter("tenant_rejected_total." + tenant).Add(1)
		writeSubmitError(w, &RetryAfterError{Err: ErrRateLimited, After: after})
		return
	}
	s.stats.batchRequests.Add(1)
	s.stats.batchJobs.Add(int64(len(jobs)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	// Lines are rendered by their callers; only the write is serialized.
	emit := func(line []byte) {
		wmu.Lock()
		defer wmu.Unlock()
		w.Write(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	summary := s.runBatch(r.Context(), jobs, tenant,
		time.Duration(req.TimeoutMS)*time.Millisecond, req.NoCache, emit)
	data, _ := json.Marshal(summary) // ints and a map[string]int: cannot fail
	emit(append(data, '\n'))
}

// batchRun carries one batch request's orchestration state.
type batchRun struct {
	s       *Server
	tenant  string
	timeout time.Duration
	noCache bool
	backoff runctl.Backoff
	// forwards holds the wall times of recent successful forwards, the
	// data behind hedgeDeadline.
	forwards cluster.LatencyWindow
}

// runBatch drives every job with bounded parallelism, emitting one
// rendered line per completion, and returns the summary.
func (s *Server) runBatch(ctx context.Context, jobs []batchJob, tenant string,
	timeout time.Duration, noCache bool, emit func([]byte)) BatchSummary {
	b := &batchRun{
		s:       s,
		tenant:  tenant,
		timeout: timeout,
		noCache: noCache,
		backoff: runctl.Backoff{Base: 50 * time.Millisecond, Factor: 2, Max: 2 * time.Second, Jitter: 0.5},
	}
	summary := BatchSummary{Summary: true, Total: len(jobs), Dispositions: map[string]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, s.cfg.BatchParallel)
	for i := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(bj *batchJob) {
			defer wg.Done()
			defer func() { <-sem }()
			line := b.runOne(ctx, bj)
			emit(appendBatchLine(make([]byte, 0, rowOverhead+len(line.Error)+len(line.Report)), &line))
			mu.Lock()
			if line.State == StateDone {
				summary.Done++
			} else {
				summary.Failed++
			}
			summary.Dispositions[line.Disposition]++
			mu.Unlock()
		}(&jobs[i])
	}
	wg.Wait()
	return summary
}

// batchRetryable reports whether a failed attempt is worth repeating:
// admission rejections (busy, shed, share, rate) clear on their own as
// the queue drains; a verdict-level failure (bad spec cannot happen here,
// so: engine error, exceeded bound, canceled) will not.
func batchRetryable(err error) bool {
	return errors.Is(err, ErrBusy) || errors.Is(err, ErrShedBatch) ||
		errors.Is(err, ErrTenantShare) || errors.Is(err, ErrRateLimited)
}

// runOne runs one batch job to a verdict or a final failure, retrying
// transient rejections with jittered backoff.
func (b *batchRun) runOne(ctx context.Context, bj *batchJob) BatchLine {
	line := BatchLine{Index: bj.Index, Protocol: bj.Protocol, CacheKey: bj.Key}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		line.Attempts = attempt + 1
		payload, disposition, err := b.tryOnce(ctx, bj)
		if err == nil {
			line.State = StateDone
			line.Disposition = disposition
			if attempt > 0 {
				line.Disposition = BatchRetried
			}
			line.Report = payload
			return line
		}
		lastErr = err
		if attempt >= b.s.cfg.BatchRetries || !batchRetryable(err) {
			break
		}
		select {
		case <-time.After(b.backoff.Delay(attempt + 1)):
		case <-ctx.Done():
		}
	}
	line.State = StateFailed
	line.Disposition = BatchFailed
	if lastErr != nil {
		line.Error = lastErr.Error()
	}
	return line
}

// tryOnce makes one attempt at a job: owned keys go to the local pool
// (which may itself forward on saturation), keys owned elsewhere are
// forwarded to their owner with a straggler re-dispatch — if the owner
// has not answered by the hedge deadline, the forward is abandoned and
// the job runs locally instead. The owner keeps computing and caches its
// result, so an abandoned forward still warms the fleet.
func (b *batchRun) tryOnce(ctx context.Context, bj *batchJob) (json.RawMessage, string, error) {
	s := b.s
	cl := s.cluster
	if cl == nil || cl.SelfIsOwner(bj.Key) || s.hasInflight(bj.Key) {
		return b.local(ctx, bj)
	}
	if !b.noCache {
		if payload, hit, _ := s.cache.Get(bj.Key); hit {
			return payload, BatchCached, nil
		}
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	forward := make(chan []byte, 1)
	began := time.Now()
	go func() {
		payload, ok := s.forwardCompute(fctx, bj.Key, bj.Canonical, bj.Opts, b.timeout, b.tenant, true)
		if !ok {
			payload = nil
		}
		forward <- payload
	}()
	hedge := time.NewTimer(hedgeDeadline(s.cfg.BatchHedge, &b.forwards))
	defer hedge.Stop()
	select {
	case payload := <-forward:
		if payload != nil {
			b.forwards.Observe(time.Since(began))
			return payload, BatchForwarded, nil
		}
		// Every owner declined or failed; the local pool is the backstop.
	case <-hedge.C:
		s.stats.batchHedges.Add(1)
		cancel()
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
	return b.local(ctx, bj)
}

// local submits the job to this node's pool and waits for its verdict.
func (b *batchRun) local(ctx context.Context, bj *batchJob) (json.RawMessage, string, error) {
	s := b.s
	j, disposition, err := s.SubmitEx(bj.Proto, bj.Canonical, bj.Opts, SubmitOptions{
		Timeout: b.timeout,
		NoCache: b.noCache,
		Tenant:  b.tenant,
		Batch:   true,
		// The batch router already made the cluster decision for this job;
		// the pool must not second-guess it per attempt.
		NoForward:  true,
		NoPeerFill: true,
		// The batch charged the tenant's bucket once for all jobs.
		Internal: true,
	})
	if err != nil {
		return nil, "", err
	}
	select {
	case <-j.Done():
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
	state, _, errText, payload := j.snapshot()
	switch state {
	case StateDone:
		if disposition == DispositionHit {
			return payload, BatchCached, nil
		}
		return payload, BatchComputed, nil
	case StateCanceled:
		return nil, "", fmt.Errorf("serve: batch job canceled: %s", errText)
	default:
		return nil, "", fmt.Errorf("serve: batch job failed: %s", errText)
	}
}

// hedgeDeadline returns the straggler re-dispatch deadline: the fixed
// Config.BatchHedge when set, otherwise three times the p90 of the recent
// successful forwards, clamped to [100ms, 30s]. Until the window holds
// enough samples it answers a generous default — the cost of hedging late
// is bounded (the job just runs locally a bit later), while hedging early
// on a cold estimate would stampede the local pool.
func hedgeDeadline(fixed time.Duration, forwards *cluster.LatencyWindow) time.Duration {
	if fixed > 0 {
		return fixed
	}
	p90, ok := forwards.Quantile(0.9)
	if !ok {
		return hedgeDefault
	}
	return min(max(3*p90, 100*time.Millisecond), 30*time.Second)
}

// hedgeDefault is the deadline before enough samples exist.
const hedgeDefault = 2 * time.Second
