package cluster

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/ckptio"
	"repro/internal/obs"
	"repro/internal/runctl"
)

// CachePathPrefix is the internal peer cache-fill endpoint: GET
// <peer><CachePathPrefix><key> returns the peer's locally cached report
// bytes for a content-address key, wrapped in ckptio's checksummed
// envelope, or 404 when the peer does not hold them. The endpoint never
// computes — it only reads the peer's local cache tiers.
const CachePathPrefix = "/v1/cache/"

// maxFetchBytes bounds a peer response body; reports are small, and a
// peer streaming garbage must cost bounded memory.
const maxFetchBytes = 32 << 20

// defaultHedgeDelay is the hedge deadline used until the latency tracker
// has enough samples for an adaptive percentile.
const defaultHedgeDelay = 50 * time.Millisecond

// Config tunes a cluster Client. The zero value (plus Peers) is fully
// usable; every knob has a production-shaped default.
type Config struct {
	// Self is this node's own advertised base URL; it is filtered out of
	// Peers, so every node of a cluster can share one identical peer list.
	Self string
	// Peers are the other nodes' base URLs (for example
	// "http://10.0.0.2:8344"; a bare host:port gets "http://"). May
	// include Self. An empty remote set is legal: every Fetch degrades to
	// a miss and the node behaves as a single-node ccserved.
	Peers []string
	// Replicas is how many top-ranked owners a lookup consults (default
	// 2, clamped to the peer count).
	Replicas int
	// FetchTimeout is the strict wall-clock budget for one whole Fetch,
	// across all hedges and retries (default 2s).
	FetchTimeout time.Duration
	// CallTimeout is the per-HTTP-attempt deadline — the wedge detector:
	// a peer that accepts and hangs costs at most this (default 500ms).
	CallTimeout time.Duration
	// ComputeTimeout is the wall-clock budget for one whole Compute —
	// forwarding a verification job to a peer and waiting for the verdict
	// (default 120s). Compute runs real engine work on the peer, so the
	// 500ms wedge detector cannot apply; a wedged compute peer costs at
	// most this, and the batch layer's straggler hedge usually far less.
	ComputeTimeout time.Duration
	// HedgeDelay, when > 0, is the fixed deadline after which a lookup is
	// hedged to the next owner. 0 (the default) hedges adaptively at the
	// p90 of recent successful fetch latencies.
	HedgeDelay time.Duration
	// Retries is the number of extra lookup rounds after the first
	// (default 1; negative disables retries).
	Retries int
	// BackoffBase / BackoffMax shape the jittered exponential delay
	// between retry rounds via runctl.Backoff (defaults 25ms / 250ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Jitter is the backoff's ± fraction (default 0.2).
	Jitter float64
	// Seed makes the retry jitter deterministic for tests.
	Seed int64
	// SuspectAfter / DownAfter are the consecutive-failure thresholds of
	// the health state machine (defaults 1 / 3).
	SuspectAfter int
	DownAfter    int
	// BreakerFailures opens a peer's circuit breaker after that many
	// consecutive failures (default 3); BreakerCooldown is how long it
	// stays open before half-opening for a trial (default 5s).
	BreakerFailures int
	BreakerCooldown time.Duration
	// ProbeInterval is the background /healthz prober cadence started by
	// Start (default 2s).
	ProbeInterval time.Duration
	// Metrics receives the cluster's counters, gauges and the
	// peer_fetch_latency_seconds histogram. Pass the serving node's
	// registry so GET /v1/metrics surfaces them; nil creates a private
	// registry.
	Metrics *obs.Registry
	// Transport overrides the HTTP transport (tests). nil uses a private
	// keep-alive transport.
	Transport http.RoundTripper
}

// withDefaults fills the zero-value fields.
func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 2 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 500 * time.Millisecond
	}
	if c.ComputeTimeout <= 0 {
		c.ComputeTimeout = 120 * time.Second
	}
	switch {
	case c.Retries == 0:
		c.Retries = 1
	case c.Retries < 0:
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		c.Jitter = 0.2
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	return c
}

// normalizeURL gives a peer address a scheme and strips the trailing
// slash, so list entries compare and concatenate predictably.
func normalizeURL(u string) string {
	u = strings.TrimRight(strings.TrimSpace(u), "/")
	if u == "" {
		return ""
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// clusterStats are the aggregate fill counters, resolved once.
type clusterStats struct {
	hits     *obs.Counter // peer_fill_hits_total
	misses   *obs.Counter // peer_fill_misses_total
	errors   *obs.Counter // peer_fill_errors_total
	corrupt  *obs.Counter // peer_fill_corrupt_total
	hedges   *obs.Counter // peer_fill_hedges_total
	degraded *obs.Counter // peer_fill_degraded_total
	latency  *obs.Histogram
}

// Client is one node's view of the cluster: the remote peer set with
// failure detectors, and the Fetch protocol over it. Create with New,
// start the background prober with Start, stop it with Close.
type Client struct {
	cfg   Config
	self  string // normalized Self address; "" when the node has no identity
	peers []*peer
	httpc *http.Client
	reg   *obs.Registry
	stats clusterStats
	comp  computeStats
	lat   *LatencyWindow

	rngMu sync.Mutex
	rng   *rand.Rand

	// now is the breaker clock; tests freeze it.
	now func() time.Time

	stopOnce sync.Once
	stop     chan struct{}
	probing  sync.WaitGroup
}

// New builds a Client over cfg.Peers minus cfg.Self. Duplicate and empty
// entries are dropped.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	self := normalizeURL(cfg.Self)
	seen := map[string]bool{}
	var peers []*peer
	for _, raw := range cfg.Peers {
		u := normalizeURL(raw)
		if u == "" || u == self || seen[u] {
			continue
		}
		seen[u] = true
		peers = append(peers, newPeer(u, cfg, reg))
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{MaxIdleConnsPerHost: 4}
	}
	return &Client{
		cfg:   cfg,
		self:  self,
		peers: peers,
		httpc: &http.Client{Transport: transport},
		reg:   reg,
		comp:  newComputeStats(reg),
		stats: clusterStats{
			hits:     reg.Counter("peer_fill_hits_total"),
			misses:   reg.Counter("peer_fill_misses_total"),
			errors:   reg.Counter("peer_fill_errors_total"),
			corrupt:  reg.Counter("peer_fill_corrupt_total"),
			hedges:   reg.Counter("peer_fill_hedges_total"),
			degraded: reg.Counter("peer_fill_degraded_total"),
			latency:  reg.Histogram("peer_fetch_latency_seconds"),
		},
		lat:  &LatencyWindow{},
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		now:  time.Now,
		stop: make(chan struct{}),
	}, nil
}

// NumPeers reports the remote peer count after self-filtering.
func (c *Client) NumPeers() int { return len(c.peers) }

// Metrics exposes the registry the client records into.
func (c *Client) Metrics() *obs.Registry { return c.reg }

// Start launches the background health prober. Idempotent restarts are
// not supported; call it once, and Close to stop.
func (c *Client) Start() {
	if len(c.peers) == 0 || c.cfg.ProbeInterval <= 0 {
		return
	}
	c.probing.Add(1)
	go c.probeLoop()
}

// Close stops the prober and releases idle connections. Safe to call more
// than once and without Start.
func (c *Client) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probing.Wait()
	c.httpc.CloseIdleConnections()
}

// probeLoop drives the failure detector between requests: every
// ProbeInterval each peer's /healthz is probed under CallTimeout, and the
// outcome feeds the same health machine as request traffic. This is what
// half-opens stuck breakers and heals recovered peers even on an idle
// node.
func (c *Client) probeLoop() {
	defer c.probing.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			for _, p := range c.peers {
				c.probe(p)
			}
		}
	}
}

// probe checks one peer's liveness. A probe bypasses the breaker — it is
// the mechanism that discovers recovery — and a 200 fully heals the peer.
func (c *Client) probe(p *peer) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.CallTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		p.failure(c.now())
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		p.success()
	} else {
		// A live-but-refusing peer (draining 503) is as unusable as a
		// dead one for cache fills.
		p.failure(c.now())
	}
}

// hedgeDelay is the deadline after which a round consults the next owner:
// the fixed Config.HedgeDelay when set, otherwise the p90 of recent
// successful fetches, clamped to [1ms, CallTimeout].
func (c *Client) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	d, ok := c.lat.Quantile(0.9)
	if !ok {
		return defaultHedgeDelay
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > c.cfg.CallTimeout {
		d = c.cfg.CallTimeout
	}
	return d
}

// backoff computes the jittered delay before retry round attempt.
func (c *Client) backoff(attempt int) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return runctl.Backoff{
		Base:   c.cfg.BackoffBase,
		Factor: 2,
		Max:    c.cfg.BackoffMax,
		Jitter: c.cfg.Jitter,
		Rand:   c.rng,
	}.Delay(attempt)
}

// owners returns the key's top-ranked peers whose breakers currently
// admit a request, at most Replicas of them.
func (c *Client) owners(key string) []*peer {
	now := c.now()
	var out []*peer
	for _, p := range rankPeers(c.peers, key) {
		if !p.allow(now) {
			continue
		}
		out = append(out, p)
		if len(out) == c.cfg.Replicas {
			break
		}
	}
	return out
}

// Fetch asks the key's owners for the canonical cached report bytes and
// returns them CRC-validated, or ok=false for a miss. It NEVER returns
// unvalidated bytes and NEVER blocks past FetchTimeout: every failure
// mode — no usable peer, timeouts, corrupt responses, a wedged or dead
// peer — degrades to a miss the caller answers with local compute.
func (c *Client) Fetch(ctx context.Context, key string) ([]byte, bool) {
	if len(c.peers) == 0 {
		c.stats.degraded.Add(1)
		return nil, false
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	began := time.Now()
	for attempt := 0; ; attempt++ {
		owners := c.owners(key)
		if len(owners) == 0 {
			// Every candidate breaker is open: the cluster is (from this
			// node's view) gone; fall back to local compute immediately.
			c.stats.degraded.Add(1)
			return nil, false
		}
		if payload, ok := c.round(ctx, key, owners); ok {
			d := time.Since(began)
			c.stats.hits.Add(1)
			c.stats.latency.Observe(d.Seconds())
			c.lat.Observe(d)
			return payload, true
		}
		if attempt >= c.cfg.Retries || ctx.Err() != nil {
			break
		}
		select {
		case <-time.After(c.backoff(attempt + 1)):
		case <-ctx.Done():
		}
	}
	c.stats.misses.Add(1)
	return nil, false
}

// round runs one hedged lookup across owners: the top owner first, the
// next after the hedge deadline (or immediately when the previous attempt
// fails fast), first validated success wins and cancels the rest.
func (c *Client) round(ctx context.Context, key string, owners []*peer) ([]byte, bool) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		payload []byte
		ok      bool
	}
	results := make(chan result, len(owners))
	launch := func(p *peer) {
		go func() {
			payload, ok := c.attempt(rctx, p, key)
			results <- result{payload, ok}
		}()
	}
	launch(owners[0])
	outstanding, next := 1, 1

	hedge := time.NewTimer(c.hedgeDelay())
	defer hedge.Stop()

	for outstanding > 0 {
		select {
		case r := <-results:
			outstanding--
			if r.ok {
				return r.payload, true
			}
			// A fast failure frees the slot: consult the next owner
			// without waiting for the hedge deadline.
			if next < len(owners) {
				launch(owners[next])
				next++
				outstanding++
			}
		case <-hedge.C:
			if next < len(owners) {
				c.stats.hedges.Add(1)
				launch(owners[next])
				next++
				outstanding++
			}
		case <-rctx.Done():
			return nil, false
		}
	}
	return nil, false
}

// attempt performs one GET /v1/cache/{key} against one peer under the
// strict per-call timeout, validates the envelope CRC, and feeds the
// outcome to the peer's failure detector. 404 is a clean miss (the peer
// answered; it just doesn't hold the key); everything else — transport
// errors, timeouts, bad statuses, corrupt envelopes — is a peer failure.
func (c *Client) attempt(ctx context.Context, p *peer, key string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	p.requests.Add(1)

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+CachePathPrefix+key, nil)
	if err != nil {
		p.failure(c.now())
		c.stats.errors.Add(1)
		return nil, false
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		p.failure(c.now())
		c.stats.errors.Add(1)
		return nil, false
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
		// Validated below.
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		p.success()
		return nil, false
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		p.failure(c.now())
		c.stats.errors.Add(1)
		return nil, false
	}

	body, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBytes+1))
	if err != nil || len(body) > maxFetchBytes {
		p.failure(c.now())
		c.stats.errors.Add(1)
		return nil, false
	}
	// The wire format is ckptio's checksummed envelope: an unverifiable
	// peer response must be a miss, never an answer.
	payload, err := ckptio.Decode(p.url+CachePathPrefix+key, body)
	if err != nil {
		p.failure(c.now())
		c.stats.corrupt.Add(1)
		c.stats.errors.Add(1)
		return nil, false
	}
	p.success()
	p.hits.Add(1)
	return payload, true
}

// Stats is the cluster's statsz document.
type Stats struct {
	Peers    []PeerStatus `json:"peers"`
	Hits     int64        `json:"peer_fill_hits"`
	Misses   int64        `json:"peer_fill_misses"`
	Errors   int64        `json:"peer_fill_errors"`
	Corrupt  int64        `json:"peer_fill_corrupt"`
	Hedges   int64        `json:"peer_fill_hedges"`
	Degraded int64        `json:"peer_fill_degraded"`
	// Forwarded-compute counters: attempts made, validated verdicts
	// received, clean admission rejections (peer busy or draining), and
	// hard failures (transport, status, corrupt envelope).
	ComputeAttempts int64 `json:"compute_forward_attempts"`
	ComputeHits     int64 `json:"compute_forward_hits"`
	ComputeRejected int64 `json:"compute_forward_rejected"`
	ComputeErrors   int64 `json:"compute_forward_errors"`
}

// Stats snapshots the peer states and aggregate counters.
func (c *Client) Stats() Stats {
	s := Stats{
		Hits:            c.stats.hits.Value(),
		Misses:          c.stats.misses.Value(),
		Errors:          c.stats.errors.Value(),
		Corrupt:         c.stats.corrupt.Value(),
		Hedges:          c.stats.hedges.Value(),
		Degraded:        c.stats.degraded.Value(),
		ComputeAttempts: c.comp.attempts.Value(),
		ComputeHits:     c.comp.hits.Value(),
		ComputeRejected: c.comp.rejected.Value(),
		ComputeErrors:   c.comp.errors.Value(),
	}
	for _, p := range c.peers {
		s.Peers = append(s.Peers, p.status())
	}
	return s
}

// ValidateKey reports whether key is a plausible content address: 64
// lowercase hex characters. The serve layer uses it to reject foreign
// path components before a client-supplied key touches the disk tier.
func ValidateKey(key string) error {
	if len(key) != 64 {
		return fmt.Errorf("cluster: cache key must be 64 hex characters, got %d", len(key))
	}
	for i := 0; i < len(key); i++ {
		ch := key[i]
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return fmt.Errorf("cluster: cache key has non-hex byte %q at %d", ch, i)
		}
	}
	return nil
}
