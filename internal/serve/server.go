package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/runctl"
)

// Config tunes a Server. The zero value is fully usable.
type Config struct {
	// Workers is the verification worker-pool width (<=0: GOMAXPROCS,
	// capped at 8 — verification is CPU-bound, so more workers than cores
	// only adds contention).
	Workers int
	// QueueDepth is the admission-control bound on queued jobs (<=0: 64).
	// A submit that finds the queue full is rejected with ErrBusy rather
	// than accepted into an unbounded backlog.
	QueueDepth int
	// JobTimeout is the per-job wall-clock deadline, and the cap on any
	// per-request deadline (<=0: 60s).
	JobTimeout time.Duration
	// CacheBytes is the memory cache budget (<=0: DefaultCacheBytes).
	CacheBytes int64
	// CacheDir enables the durable disk cache tier ("" disables it).
	CacheDir string
	// DiskCacheBytes bounds the disk tier by total bytes: startup runs an
	// LRU retention sweep (ckptio.SweepDir) evicting the oldest result
	// files until the tier fits. <=0 leaves the tier unbounded.
	DiskCacheBytes int64
	// KeepJobs bounds retained terminal job records for polling (<=0:
	// 1024); the oldest are forgotten first.
	KeepJobs int
	// Metrics is the observability registry backing the service counters,
	// the per-protocol verify_latency_seconds.* histograms and the engine
	// metrics of every verification run; /statsz and GET /v1/metrics read
	// from it. nil creates a private registry (the usual case); pass one to
	// aggregate several servers, or to scrape engine counters elsewhere.
	Metrics *obs.Registry
	// TenantRate is the per-tenant token-bucket refill rate in requests per
	// second (<=0 disables rate limiting). Each distinct X-CC-Tenant value
	// gets its own bucket; batch submissions charge one token per expanded
	// job.
	TenantRate float64
	// TenantBurst is the token-bucket capacity (<=0: max(1, 2*TenantRate)).
	TenantBurst int
	// TenantQueueShare is the fraction of QueueDepth one tenant may occupy
	// with queued jobs (<=0: 0.75; >=1 disables the cap). A tenant at its
	// share is rejected with ErrTenantShare while other tenants still
	// admit, so a flooding tenant cannot starve the rest of the queue.
	TenantQueueShare float64
	// BatchShedFraction is the queue occupancy above which batch-class
	// submissions are shed with ErrShedBatch, reserving the remaining
	// depth for interactive work (<=0: 0.5; >=1 disables shedding).
	BatchShedFraction float64
	// BatchParallel bounds how many jobs one POST /v1/verify/batch request
	// drives concurrently (<=0: 2*Workers, at least 4).
	BatchParallel int
	// BatchHedge fixes the straggler re-dispatch deadline for forwarded
	// batch jobs. <=0 (the default) adapts it from observed job latency.
	BatchHedge time.Duration
	// BatchRetries is how many times a failed batch job is retried with
	// jittered backoff before its verdict is reported failed (<0: 0; 0
	// defaults to 2).
	BatchRetries int
}

// withDefaults fills the zero-value fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.KeepJobs <= 0 {
		c.KeepJobs = 1024
	}
	if c.TenantQueueShare <= 0 {
		c.TenantQueueShare = 0.75
	}
	if c.BatchShedFraction <= 0 {
		c.BatchShedFraction = 0.5
	}
	if c.BatchParallel <= 0 {
		c.BatchParallel = 2 * c.Workers
		if c.BatchParallel < 4 {
			c.BatchParallel = 4
		}
	}
	if c.BatchRetries == 0 {
		c.BatchRetries = 2
	} else if c.BatchRetries < 0 {
		c.BatchRetries = 0
	}
	return c
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job kinds: what a worker runs when it dequeues the job.
const (
	jobVerify   = "verify"
	jobSimulate = "simulate"
)

// Job is one request's lifecycle record (verification or simulation).
// Identical concurrent requests share one Job (dedup): the first miss
// creates it, later arrivals coalesce onto it and poll the same ID.
type Job struct {
	ID       string
	CacheKey string

	kind  string
	proto *fsm.Protocol // verify jobs only
	opts  JobOptions    // verify jobs only
	// runFn, when set, is the job's entire execution (simulate jobs carry
	// their decoded request in this closure); nil jobs run the verification
	// path through Server.runJob.
	runFn   func(ctx context.Context) (payload []byte, cacheable bool, err error)
	timeout time.Duration
	tenant  string // canonical tenant charged for the queue slot ("" for hits)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	state   string
	cached  bool // result was served from the cache, no engine run
	errText string
	payload []byte // encoded Report, exactly as cached/served
	// graphs memoizes the rendered transition-graph exports by format
	// (see Server.JobGraph), so repeated graph requests are byte-identical
	// without re-expanding the state space.
	graphs map[string][]byte
}

// snapshot reads the job's terminal-relevant fields atomically.
func (j *Job) snapshot() (state string, cached bool, errText string, payload []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.cached, j.errText, j.payload
}

// setRunning flips a queued job to running; it reports false when the job
// was already canceled.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	return true
}

// Done exposes the completion channel (closed at any terminal state).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation of a queued or running job.
func (j *Job) Cancel() { j.cancel() }

// await blocks until j reaches a terminal state or ctx ends; it reports
// whether the job finished.
func await(ctx context.Context, j *Job) bool {
	select {
	case <-j.Done():
		return true
	case <-ctx.Done():
		return false
	}
}

// Submission dispositions.
const (
	DispositionHit       = "hit"       // served from cache, no job ran
	DispositionPeer      = "peer"      // filled from a cluster peer's cache, no job ran
	DispositionCoalesced = "coalesced" // attached to an in-flight identical job
	DispositionQueued    = "queued"    // admitted as a fresh job
	// DispositionForwarded: the local pool was saturated and a cluster
	// peer computed (or had cached) the result; no local job ran.
	DispositionForwarded = "forwarded"
)

// Typed submission rejections.
var (
	// ErrBusy: the admission queue is full; retry later.
	ErrBusy = errors.New("serve: queue full")
	// ErrDraining: the server is draining and accepts no new work.
	ErrDraining = errors.New("serve: draining")
)

// serverStats are the monotonic service counters. They live in the
// server's obs registry (so /statsz and GET /v1/metrics read one source of
// truth) but are resolved once at construction, keeping the hot paths free
// of registry map lookups.
type serverStats struct {
	requests         *obs.Counter // verify_requests_total
	cacheHits        *obs.Counter // cache_hits_total
	coalesced        *obs.Counter // coalesced_total
	admitted         *obs.Counter // admitted_total
	rejectedBusy     *obs.Counter // rejected_busy_total
	rejectedDraining *obs.Counter // rejected_draining_total
	engineRuns       *obs.Counter // engine_runs_total
	jobsDone         *obs.Counter // jobs_done_total
	jobsFailed       *obs.Counter // jobs_failed_total
	jobsCanceled     *obs.Counter // jobs_canceled_total
	auditRejected    *obs.Counter // audit_rejected_total
	panics           *obs.Counter // panics_total
	peerRejected     *obs.Counter // peer_fill_rejected_total
	peerServed       *obs.Counter // peer_cache_served_total

	forwarded         *obs.Counter // forwarded_total: saturated submits answered by a peer
	peerComputeServed *obs.Counter // peer_compute_served_total: forwarded jobs served here
	shedBatch         *obs.Counter // shed_batch_total
	rateLimited       *obs.Counter // rate_limited_total
	tenantRejected    *obs.Counter // tenant_rejected_total (queue-share refusals)
	batchRequests     *obs.Counter // batch_requests_total
	batchJobs         *obs.Counter // batch_jobs_total
	batchHedges       *obs.Counter // batch_hedges_total: straggler re-dispatches

	simRequests *obs.Counter // simulate_requests_total
	simRuns     *obs.Counter // simulate_runs_total: replay engine executions
	simHits     *obs.Counter // simulate_cache_hits_total
}

// newServerStats registers the service counters in reg.
func newServerStats(reg *obs.Registry) serverStats {
	return serverStats{
		requests:         reg.Counter("verify_requests_total"),
		cacheHits:        reg.Counter("cache_hits_total"),
		coalesced:        reg.Counter("coalesced_total"),
		admitted:         reg.Counter("admitted_total"),
		rejectedBusy:     reg.Counter("rejected_busy_total"),
		rejectedDraining: reg.Counter("rejected_draining_total"),
		engineRuns:       reg.Counter("engine_runs_total"),
		jobsDone:         reg.Counter("jobs_done_total"),
		jobsFailed:       reg.Counter("jobs_failed_total"),
		jobsCanceled:     reg.Counter("jobs_canceled_total"),
		auditRejected:    reg.Counter("audit_rejected_total"),
		panics:           reg.Counter("panics_total"),
		peerRejected:     reg.Counter("peer_fill_rejected_total"),
		peerServed:       reg.Counter("peer_cache_served_total"),

		forwarded:         reg.Counter("forwarded_total"),
		peerComputeServed: reg.Counter("peer_compute_served_total"),
		shedBatch:         reg.Counter("shed_batch_total"),
		rateLimited:       reg.Counter("rate_limited_total"),
		tenantRejected:    reg.Counter("tenant_rejected_total"),
		batchRequests:     reg.Counter("batch_requests_total"),
		batchJobs:         reg.Counter("batch_jobs_total"),
		batchHedges:       reg.Counter("batch_hedges_total"),

		simRequests: reg.Counter("simulate_requests_total"),
		simRuns:     reg.Counter("simulate_runs_total"),
		simHits:     reg.Counter("simulate_cache_hits_total"),
	}
}

// Server is the verification service: cache, dedup index, worker pool and
// job table. Create with New, start the pool with Start, serve HTTP via
// Handler, and stop with Drain.
type Server struct {
	cfg     Config
	cache   *Cache
	metrics *obs.Registry
	stats   serverStats
	start   time.Time

	// cluster, when set, is the peer cache-fill client consulted between
	// a local cache miss and a local engine run. Attached via SetCluster
	// before Start; nil keeps single-node behavior.
	cluster *cluster.Client

	// jobsCtx parents every job context; jobsCancel is the drain
	// deadline's force-stop.
	jobsCtx    context.Context
	jobsCancel context.CancelFunc

	// buckets is the per-tenant rate limiter (nil: unlimited); tenantCap
	// and batchWater are the queue-share and batch-shed thresholds derived
	// from Config at construction.
	buckets    *tokenBuckets
	tenantCap  int
	batchWater int

	// sweeps maps a registered protocol's name to its *sweepEntry, what
	// batch sweeps derive from it once.
	sweeps sync.Map

	mu           sync.Mutex
	draining     bool
	queue        chan *Job
	jobs         map[string]*Job // by ID, terminal records retained up to KeepJobs
	inflight     map[string]*Job // by cache key, queued or running only
	order        []string        // terminal job IDs, oldest first
	nextID       int64
	tenantQueued map[string]int // queued (not yet running) jobs per tenant

	wg sync.WaitGroup

	// runJob executes one verification; tests swap it to control timing
	// and count runs. The default is runVerification.
	runJob func(ctx context.Context, p *fsm.Protocol, key string, opts JobOptions) (*Report, bool, error)
}

// New builds a Server (cache preflighted, workers not yet started).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := NewCache(cfg.CacheBytes, cfg.CacheDir, cfg.DiskCacheBytes)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The queue-share cap: at least one slot so a lone tenant is never
	// locked out, and the whole depth when sharing is disabled (>=1).
	tenantCap := int(math.Ceil(cfg.TenantQueueShare * float64(cfg.QueueDepth)))
	if tenantCap < 1 {
		tenantCap = 1
	}
	if cfg.TenantQueueShare >= 1 || tenantCap > cfg.QueueDepth {
		tenantCap = cfg.QueueDepth
	}
	batchWater := int(cfg.BatchShedFraction * float64(cfg.QueueDepth))
	if batchWater < 1 {
		batchWater = 1
	}
	if cfg.BatchShedFraction >= 1 || batchWater > cfg.QueueDepth {
		batchWater = cfg.QueueDepth
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:          cfg,
		cache:        cache,
		metrics:      reg,
		stats:        newServerStats(reg),
		start:        time.Now(),
		jobsCtx:      ctx,
		jobsCancel:   cancel,
		buckets:      newTokenBuckets(cfg.TenantRate, cfg.TenantBurst),
		tenantCap:    tenantCap,
		batchWater:   batchWater,
		queue:        make(chan *Job, cfg.QueueDepth),
		jobs:         map[string]*Job{},
		inflight:     map[string]*Job{},
		tenantQueued: map[string]int{},
		runJob: func(ctx context.Context, p *fsm.Protocol, key string, opts JobOptions) (*Report, bool, error) {
			return runVerification(ctx, p, key, opts, reg)
		},
	}, nil
}

// Metrics exposes the server's observability registry (the one /statsz and
// GET /v1/metrics read).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// SetCluster attaches the peer cache-fill client. Call it after New and
// before Start / serving traffic; the client should share this server's
// Metrics registry so the peer counters surface in GET /v1/metrics. The
// cluster layer is strictly an accelerator: every peer outcome other than
// a validated hit falls through to the local worker pool, so a node whose
// whole peer set is dead behaves exactly like a single-node server.
func (s *Server) SetCluster(c *cluster.Client) { s.cluster = c }

// Cluster returns the attached peer client (nil for a single node).
func (s *Server) Cluster() *cluster.Client { return s.cluster }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain stops intake and waits for every queued and running job to finish.
// When ctx expires first, the remaining jobs are canceled and Drain still
// waits for the workers to observe that, then reports the forced stop.
// Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.jobsCancel()
		<-finished
		return fmt.Errorf("serve: drain deadline exceeded; in-flight jobs canceled")
	}
}

// Draining reports whether intake is closed.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SubmitOptions refine a submission beyond the job's engine options.
type SubmitOptions struct {
	// Timeout caps the job's wall clock (<=0 or beyond JobTimeout: the
	// server's JobTimeout).
	Timeout time.Duration
	// NoCache bypasses the cache read (the result is still stored).
	NoCache bool
	// Tenant is the raw tenant identity (canonicalized internally); it is
	// charged for rate and queue share.
	Tenant string
	// Batch marks batch-class work, which is shed before interactive work
	// under queue pressure.
	Batch bool
	// Routed marks a submission whose caller has already made the cluster
	// decision and charged the tenant's token bucket: a batch-expanded job
	// or a forwarded compute job. It is not rate-charged, probes no peer
	// cache and is never forwarded on saturation, so a forwarded job cannot
	// take a second hop. The queue-share cap, batch shedding and
	// coalescing still apply.
	Routed bool
}

// SubmitEx routes one verification request: cache hit, coalesce onto an
// identical in-flight job, or admit a fresh job, under the tenancy, work
// class and cluster routing control of so. The full admission order:
// tenant rate limit, cache, peer cache fill, drain check, coalesce,
// saturation (forward to a peer or reject busy), batch shed, tenant queue
// share, enqueue; a Routed submission skips the rate limit, the peer fill
// and the forward. Rejections after the rate gate arrive as
// RetryAfterError wrapping ErrBusy / ErrShedBatch / ErrTenantShare, so the
// HTTP layer can emit 429 + Retry-After uniformly.
func (s *Server) SubmitEx(p *fsm.Protocol, canonical string, opts JobOptions, so SubmitOptions) (*Job, string, error) {
	s.stats.requests.Add(1)
	return s.submit(submission{kind: jobVerify, key: CacheKey(canonical, opts), proto: p, canonical: canonical, opts: opts}, so)
}

// runRouted submits a Routed verification, waits for it, and returns the
// job's terminal snapshot. err is the submission's rejection, or ctx's
// error once the caller stops waiting; that job keeps running, and its
// result still lands in the cache. A routed job is never peer-filled or
// forwarded, so cached means a local cache hit.
func (s *Server) runRouted(ctx context.Context, p *fsm.Protocol, canonical string, opts JobOptions, so SubmitOptions) (state string, cached bool, errText string, payload []byte, err error) {
	so.Routed = true
	j, _, err := s.SubmitEx(p, canonical, opts, so)
	if err == nil && !await(ctx, j) {
		err = ctx.Err()
	}
	if err != nil {
		return "", false, "", nil, err
	}
	state, cached, errText, payload = j.snapshot()
	return state, cached, errText, payload, nil
}

// submission is one unit of work entering the generic admission pipeline
// (submit). The verify and simulate endpoints both reduce to it, so cache
// lookup, peer fill, coalescing, saturation handling and per-tenant
// admission behave identically for every job kind.
type submission struct {
	kind      string
	key       string
	proto     *fsm.Protocol // verify only
	canonical string        // verify only: the spec a forward ships
	opts      JobOptions    // verify only
	runFn     func(ctx context.Context) ([]byte, bool, error)
}

// submit is the kind-agnostic admission pipeline shared by every submission
// endpoint; see SubmitEx for the admission order.
func (s *Server) submit(sub submission, so SubmitOptions) (*Job, string, error) {
	tenant := CanonicalTenant(so.Tenant)
	timeout := so.Timeout
	if timeout <= 0 || timeout > s.cfg.JobTimeout {
		timeout = s.cfg.JobTimeout
	}
	key := sub.key

	if !so.Routed {
		if ok, after := s.buckets.take(tenant, 1); !ok {
			s.stats.rateLimited.Add(1)
			s.metrics.Counter("tenant_rejected_total." + tenant).Add(1)
			return nil, "", &RetryAfterError{Err: ErrRateLimited, After: after}
		}
	}
	if !so.NoCache {
		if payload, hit, _ := s.cache.Get(key); hit {
			s.stats.cacheHits.Add(1)
			if sub.kind == jobSimulate {
				s.stats.simHits.Add(1)
			}
			return s.recordHit(sub, payload, DispositionHit)
		}
		if !so.Routed {
			if payload, ok := s.peerFill(key); ok {
				s.cache.Put(key, payload)
				return s.recordHit(sub, payload, DispositionPeer)
			}
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.stats.rejectedDraining.Add(1)
		return nil, "", ErrDraining
	}
	if j, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.stats.coalesced.Add(1)
		return j, DispositionCoalesced, nil
	}
	// Saturation outranks the per-tenant checks: a full queue is a node
	// property, and the remedy (hand the job to a peer with headroom) is
	// the same whoever pushed it over.
	qlen := len(s.queue)
	if qlen >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return s.saturated(sub, timeout, tenant, so)
	}
	if so.Batch && qlen >= s.batchWater {
		s.mu.Unlock()
		s.stats.shedBatch.Add(1)
		return nil, "", &RetryAfterError{Err: ErrShedBatch, After: time.Second}
	}
	if s.tenantQueued[tenant] >= s.tenantCap {
		s.mu.Unlock()
		s.stats.tenantRejected.Add(1)
		s.metrics.Counter("tenant_rejected_total." + tenant).Add(1)
		return nil, "", &RetryAfterError{Err: ErrTenantShare, After: time.Second}
	}
	jctx, cancel := context.WithCancel(s.jobsCtx)
	j := &Job{
		ID:       fmt.Sprintf("j-%06d", s.nextID+1),
		CacheKey: key,
		kind:     sub.kind,
		proto:    sub.proto,
		opts:     sub.opts,
		runFn:    sub.runFn,
		timeout:  timeout,
		tenant:   tenant,
		ctx:      jctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    StateQueued,
	}
	select {
	case s.queue <- j:
	default:
		// The len check above raced a concurrent enqueue; same outcome as
		// finding the queue full outright.
		cancel()
		s.mu.Unlock()
		return s.saturated(sub, timeout, tenant, so)
	}
	s.nextID++
	s.jobs[j.ID] = j
	s.inflight[key] = j
	s.tenantQueued[tenant]++
	s.metrics.Gauge("tenant_queued." + tenant).Add(1)
	s.stats.admitted.Add(1)
	s.mu.Unlock()
	return j, DispositionQueued, nil
}

// saturated handles a submission that found the queue full: forward an
// unrouted verification to a cluster peer with headroom, otherwise reject
// busy. Simulate jobs never forward (the trace bytes would have to travel
// with them). Forwarding failing for any reason degrades to the rejection —
// the client retries exactly as on a single node.
func (s *Server) saturated(sub submission, timeout time.Duration, tenant string, so SubmitOptions) (*Job, string, error) {
	if sub.kind == jobVerify && !so.Routed {
		if payload, ok := s.forwardCompute(s.jobsCtx, sub.key, sub.canonical, sub.opts, timeout, tenant, so.Batch); ok {
			s.stats.forwarded.Add(1)
			return s.recordHit(sub, payload, DispositionForwarded)
		}
	}
	s.stats.rejectedBusy.Add(1)
	return nil, "", &RetryAfterError{Err: ErrBusy, After: time.Second}
}

// forwardCompute ships one job to the least-loaded healthy owner of key
// via the cluster compute endpoint and validates the returned report the
// same way a peer cache fill is validated. A validated result is cached
// locally before being returned.
func (s *Server) forwardCompute(ctx context.Context, key, canonical string, opts JobOptions, timeout time.Duration, tenant string, batch bool) ([]byte, bool) {
	if s.cluster == nil {
		return nil, false
	}
	body, err := json.Marshal(computeRequest{
		Spec:       canonical,
		JobOptions: opts,
		TimeoutMS:  int(timeout / time.Millisecond),
		Tenant:     tenant,
		Batch:      batch,
	})
	if err != nil {
		return nil, false
	}
	payload, ok := s.cluster.Compute(ctx, key, body)
	if !ok {
		return nil, false
	}
	if !s.validReport(key, payload) {
		s.stats.peerRejected.Add(1)
		return nil, false
	}
	s.cache.Put(key, payload)
	return payload, true
}

// recordHit registers a pre-completed job record for a local or peer
// cache hit, so the response carries a pollable job ID like every other
// disposition. The submission's kind, protocol and options are retained so
// derived views of the result (the transition-graph endpoint) work on hit
// jobs exactly as on freshly computed ones.
func (s *Server) recordHit(sub submission, payload []byte, disposition string) (*Job, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j := &Job{
		ID:       fmt.Sprintf("j-%06d", s.nextID),
		CacheKey: sub.key,
		kind:     sub.kind,
		proto:    sub.proto,
		opts:     sub.opts,
		done:     make(chan struct{}),
		state:    StateDone,
		cached:   true,
		payload:  payload,
		cancel:   func() {},
	}
	close(j.done)
	s.jobs[j.ID] = j
	s.retireLocked(j.ID)
	return j, disposition, nil
}

// peerFill consults the cluster for a missing key: ask the key's owners
// (hedged, breaker-gated, CRC-checked — see internal/cluster), then
// validate that the returned bytes really are a current-schema report for
// exactly this key. Any failure is a miss: the caller computes locally.
// An identical in-flight local job wins over a remote ask — coalescing is
// free, a fetch is not.
func (s *Server) peerFill(key string) ([]byte, bool) {
	if s.cluster == nil || s.hasInflight(key) {
		return nil, false
	}
	payload, ok := s.cluster.Fetch(s.jobsCtx, key)
	if !ok {
		return nil, false
	}
	if !s.validReport(key, payload) {
		s.stats.peerRejected.Add(1)
		return nil, false
	}
	return payload, true
}

// validReport is the belt over the CRC envelope's braces: the envelope
// proved the bytes arrived intact, this proves they are the right result —
// a confused or malicious peer answering with a different key's (valid)
// report must be rejected, never served or cached. Applied to every
// payload a peer hands back, whether cache fill or forwarded compute.
// The full json.Unmarshal is load-bearing: it is the only JSON-validity
// check peer bytes get before appendCompact splices them verbatim into
// batch rows and job statuses (see encode.go), so a cheaper two-field scan
// would let a truncated or trailing-garbage payload corrupt responses.
func (s *Server) validReport(key string, payload []byte) bool {
	var probe struct {
		Schema   int    `json:"schema"`
		CacheKey string `json:"cache_key"`
	}
	return json.Unmarshal(payload, &probe) == nil &&
		probe.Schema == ReportSchema && probe.CacheKey == key
}

// hasInflight reports whether an identical job is queued or running.
func (s *Server) hasInflight(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.inflight[key]
	return ok
}

// JobByID looks up a job record.
func (s *Server) JobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.execute(j)
	}
}

// execute runs one job to a terminal state with panic isolation.
func (s *Server) execute(j *Job) {
	s.releaseTenantSlot(j)
	if j.ctx.Err() != nil || !j.setRunning() {
		s.finish(j, StateCanceled, nil, "canceled before start")
		return
	}
	ctx, cancel := context.WithTimeout(j.ctx, j.timeout)
	defer cancel()
	if j.kind == jobSimulate {
		s.stats.simRuns.Add(1)
	} else {
		s.stats.engineRuns.Add(1)
	}
	began := time.Now()
	payload, cacheable, err := s.safeRun(ctx, j)
	s.metrics.Histogram(j.latencyMetric()).Observe(time.Since(began).Seconds())
	switch {
	case err == nil:
		if cacheable {
			s.cache.Put(j.CacheKey, payload)
		} else {
			s.stats.auditRejected.Add(1)
		}
		s.finish(j, StateDone, payload, "")
	case errors.Is(err, runctl.ErrCanceled), errors.Is(err, context.Canceled):
		s.finish(j, StateCanceled, nil, err.Error())
	default:
		s.finish(j, StateFailed, nil, err.Error())
	}
}

// latencyMetric names the job's latency histogram: per-protocol for
// verifications, one series for simulations (whose cost is set by the
// trace, not the protocol fan-out).
func (j *Job) latencyMetric() string {
	if j.kind == jobSimulate {
		return "simulate_latency_seconds"
	}
	return "verify_latency_seconds." + j.proto.Name
}

// safeRun executes the job's work with panic isolation — a panicking run
// fails its own job and leaves the worker, the pool and every other job
// intact — and returns the encoded report payload exactly as it will be
// cached and served.
func (s *Server) safeRun(ctx context.Context, j *Job) (payload []byte, cacheable bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			payload, cacheable = nil, false
			err = fmt.Errorf("serve: %s run panicked: %v", j.kind, r)
		}
	}()
	if j.runFn != nil {
		return j.runFn(ctx)
	}
	rep, cacheable, err := s.runJob(ctx, j.proto, j.CacheKey, j.opts)
	if err != nil {
		return nil, false, err
	}
	return encodeReport(rep), cacheable, nil
}

// finish moves a job to its terminal state and retires it from the dedup
// index so later identical requests miss the inflight table (and hit the
// cache instead, when the job succeeded).
func (s *Server) finish(j *Job, state string, payload []byte, errText string) {
	j.mu.Lock()
	j.state = state
	j.payload = payload
	j.errText = errText
	j.mu.Unlock()
	j.cancel() // release the context resources

	s.mu.Lock()
	if s.inflight[j.CacheKey] == j {
		delete(s.inflight, j.CacheKey)
	}
	s.retireLocked(j.ID)
	s.mu.Unlock()

	switch state {
	case StateDone:
		s.stats.jobsDone.Add(1)
	case StateCanceled:
		s.stats.jobsCanceled.Add(1)
	default:
		s.stats.jobsFailed.Add(1)
	}
	close(j.done)
}

// releaseTenantSlot returns a job's queue-share slot to its tenant the
// moment a worker dequeues it: the share cap bounds queued work (the
// resource one tenant can hoard), not running work (bounded by Workers).
func (s *Server) releaseTenantSlot(j *Job) {
	if j.tenant == "" {
		return
	}
	s.mu.Lock()
	if n := s.tenantQueued[j.tenant]; n > 1 {
		s.tenantQueued[j.tenant] = n - 1
	} else if n == 1 {
		delete(s.tenantQueued, j.tenant)
	}
	s.mu.Unlock()
	s.metrics.Gauge("tenant_queued." + j.tenant).Add(-1)
}

// retireLocked appends a terminal job to the retention ring and forgets
// the oldest records beyond KeepJobs. Callers hold s.mu.
func (s *Server) retireLocked(id string) {
	s.order = append(s.order, id)
	for len(s.order) > s.cfg.KeepJobs {
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

// StatszSchema versions the /statsz JSON layout (see docs/service.md for
// the compatibility contract).
const StatszSchema = 1

// Stats is the statsz document. Field names are snake_case and stable:
// existing names never change meaning; new fields may be added alongside a
// Schema bump only for incompatible reshapes.
type Stats struct {
	Schema           int     `json:"schema"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Draining         bool    `json:"draining"`
	Workers          int     `json:"workers"`
	QueueCap         int     `json:"queue_cap"`
	Queued           int     `json:"queued"`
	Inflight         int     `json:"inflight"`
	Requests         int64   `json:"requests"`
	CacheHits        int64   `json:"cache_hits"`
	Coalesced        int64   `json:"coalesced"`
	Admitted         int64   `json:"admitted"`
	RejectedBusy     int64   `json:"rejected_busy"`
	RejectedDraining int64   `json:"rejected_draining"`
	EngineRuns       int64   `json:"engine_runs"`
	JobsDone         int64   `json:"jobs_done"`
	JobsFailed       int64   `json:"jobs_failed"`
	JobsCanceled     int64   `json:"jobs_canceled"`
	AuditRejected    int64   `json:"audit_rejected"`
	Panics           int64   `json:"panics"`
	// PeerRejected counts peer-fill payloads that arrived intact (CRC ok)
	// but failed report validation (wrong key or schema) and were discarded.
	PeerRejected int64 `json:"peer_rejected"`
	// PeerServed counts cache entries this node handed to asking peers via
	// GET /v1/cache/{key}.
	PeerServed int64 `json:"peer_served"`
	// Forwarded counts saturated submissions answered by forwarding the
	// job to a cluster peer's compute endpoint.
	Forwarded int64 `json:"forwarded"`
	// PeerComputeServed counts forwarded jobs this node computed (or
	// served from cache) on behalf of saturated peers.
	PeerComputeServed int64 `json:"peer_compute_served"`
	// ShedBatch counts batch-class submissions shed to protect interactive
	// headroom.
	ShedBatch int64 `json:"shed_batch"`
	// RateLimited counts submissions refused by a tenant's token bucket.
	RateLimited int64 `json:"rate_limited"`
	// TenantRejected counts submissions refused by the per-tenant queue
	// share cap.
	TenantRejected int64 `json:"tenant_rejected"`
	// BatchRequests / BatchJobs count POST /v1/verify/batch requests and
	// the jobs they expanded to; BatchHedges counts straggler re-dispatches
	// of forwarded batch jobs.
	BatchRequests int64 `json:"batch_requests"`
	BatchJobs     int64 `json:"batch_jobs"`
	BatchHedges   int64 `json:"batch_hedges"`
	// SimulateRequests / SimulateRuns / SimulateCacheHits count POST
	// /v1/simulate submissions, the replay-engine executions they caused,
	// and the ones answered straight from the result cache.
	SimulateRequests  int64 `json:"simulate_requests"`
	SimulateRuns      int64 `json:"simulate_runs"`
	SimulateCacheHits int64 `json:"simulate_cache_hits"`
	// Cluster is the attached peer client's snapshot; absent on a
	// single-node server.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	CacheStats
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	queued := len(s.queue)
	inflight := len(s.inflight)
	draining := s.draining
	s.mu.Unlock()
	var cstats *cluster.Stats
	if s.cluster != nil {
		snap := s.cluster.Stats()
		cstats = &snap
	}
	return Stats{
		Schema:           StatszSchema,
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Draining:         draining,
		Workers:          s.cfg.Workers,
		QueueCap:         s.cfg.QueueDepth,
		Queued:           queued,
		Inflight:         inflight,
		Requests:         s.stats.requests.Value(),
		CacheHits:        s.stats.cacheHits.Value(),
		Coalesced:        s.stats.coalesced.Value(),
		Admitted:         s.stats.admitted.Value(),
		RejectedBusy:     s.stats.rejectedBusy.Value(),
		RejectedDraining: s.stats.rejectedDraining.Value(),
		EngineRuns:       s.stats.engineRuns.Value(),
		JobsDone:         s.stats.jobsDone.Value(),
		JobsFailed:       s.stats.jobsFailed.Value(),
		JobsCanceled:     s.stats.jobsCanceled.Value(),
		AuditRejected:    s.stats.auditRejected.Value(),
		Panics:           s.stats.panics.Value(),
		PeerRejected:     s.stats.peerRejected.Value(),
		PeerServed:       s.stats.peerServed.Value(),

		Forwarded:         s.stats.forwarded.Value(),
		PeerComputeServed: s.stats.peerComputeServed.Value(),
		ShedBatch:         s.stats.shedBatch.Value(),
		RateLimited:       s.stats.rateLimited.Value(),
		TenantRejected:    s.stats.tenantRejected.Value(),
		BatchRequests:     s.stats.batchRequests.Value(),
		BatchJobs:         s.stats.batchJobs.Value(),
		BatchHedges:       s.stats.batchHedges.Value(),
		SimulateRequests:  s.stats.simRequests.Value(),
		SimulateRuns:      s.stats.simRuns.Value(),
		SimulateCacheHits: s.stats.simHits.Value(),

		Cluster:    cstats,
		CacheStats: s.cache.Stats(),
	}
}
