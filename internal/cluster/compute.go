package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/ckptio"
	"repro/internal/obs"
)

// ComputePath is the cluster-internal compute-forwarding endpoint: POST
// <peer><ComputePath> with a serve-layer compute request body runs the job
// on the peer (or serves it from the peer's cache) and returns the
// canonical report bytes in ckptio's CRC32 envelope. Unlike CachePathPrefix
// this endpoint does compute — it is how a saturated node hands work to an
// idle one, and how a batch sweep shards jobs to their content-address
// owners.
const ComputePath = "/v1/cluster/compute"

// ForwardedHeader marks a cluster-internal forwarded request. A node
// serving a request that carries it never forwards again — with one
// mandatory marker per hop and no second hop, forwarding loops are
// structurally impossible.
const ForwardedHeader = "X-CC-Forwarded"

// computeStats are the forwarded-compute counters, resolved once.
type computeStats struct {
	attempts *obs.Counter // compute_forward_attempts_total
	hits     *obs.Counter // compute_forward_hits_total
	rejected *obs.Counter // compute_forward_rejected_total
	errors   *obs.Counter // compute_forward_errors_total
	corrupt  *obs.Counter // compute_forward_corrupt_total
	latency  *obs.Histogram
}

func newComputeStats(reg *obs.Registry) computeStats {
	return computeStats{
		attempts: reg.Counter("compute_forward_attempts_total"),
		hits:     reg.Counter("compute_forward_hits_total"),
		rejected: reg.Counter("compute_forward_rejected_total"),
		errors:   reg.Counter("compute_forward_errors_total"),
		corrupt:  reg.Counter("compute_forward_corrupt_total"),
		latency:  reg.Histogram("compute_forward_latency_seconds"),
	}
}

// SelfIsOwner reports whether this node rendezvous-owns key, considering
// itself plus every configured peer regardless of health (ownership is a
// pure hash property; health only decides whether a forward is attempted).
// A node with no advertised Self address owns everything: without an
// identity it cannot claim a shard, so it computes locally and leaves
// sharding to the peers that can.
func (c *Client) SelfIsOwner(key string) bool {
	if c.self == "" {
		return true
	}
	selfScore := hrwScore(c.self, key)
	for _, p := range c.peers {
		s := hrwScore(p.url, key)
		if s > selfScore || (s == selfScore && p.url < c.self) {
			return false
		}
	}
	return true
}

// computeCandidates returns the owners a forwarded job may go to: the
// key's owners (see owners), ordered least-loaded first (outstanding
// forwarded calls ascending, rendezvous rank breaking ties). The
// least-loaded pick is what spreads a hot key's overflow across the fleet
// instead of piling every forward onto one owner.
func (c *Client) computeCandidates(key string) []*peer {
	out := c.owners(key)
	sort.SliceStable(out, func(a, b int) bool {
		return out[a].inflight.Load() < out[b].inflight.Load()
	})
	return out
}

// Compute forwards one verification job to the least-loaded healthy owner
// of key and returns the peer's CRC-validated report bytes, or ok=false
// when no peer produced one. body is the serve-layer compute request,
// shipped opaquely. Candidates are tried in least-loaded order; a peer
// that rejects the job (429 admission, 503 drain) stays healthy and the
// next candidate is tried, while transport errors and corrupt envelopes
// feed the failure detector. Every failure mode degrades to ok=false —
// the caller queues locally, exactly like a cache-fill miss. Compute
// NEVER blocks past ComputeTimeout.
func (c *Client) Compute(ctx context.Context, key string, body []byte) ([]byte, bool) {
	if len(c.peers) == 0 {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ComputeTimeout)
	defer cancel()
	for _, p := range c.computeCandidates(key) {
		if ctx.Err() != nil {
			break
		}
		began := time.Now()
		payload, outcome := c.attemptCompute(ctx, p, body)
		if outcome == computeOK {
			c.comp.hits.Add(1)
			c.comp.latency.Observe(time.Since(began).Seconds())
			return payload, true
		}
	}
	return nil, false
}

// computeOutcome classifies one forwarded-compute attempt.
type computeOutcome int

const (
	computeOK computeOutcome = iota
	computeRejected
	computeFailed
)

// attemptCompute POSTs one compute request to one peer under the remaining
// context budget and validates the enveloped response. The peer's
// failure detector sees transport errors, bad statuses and corrupt
// envelopes; clean rejections (429/503) leave health untouched — a node
// shedding load is alive and doing its job.
func (c *Client) attemptCompute(ctx context.Context, p *peer, body []byte) ([]byte, computeOutcome) {
	c.comp.attempts.Add(1)
	p.requests.Add(1)
	p.inflight.Add(1)
	p.inflightG.Add(1)
	defer func() {
		p.inflight.Add(-1)
		p.inflightG.Add(-1)
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+ComputePath, bytes.NewReader(body))
	if err != nil {
		p.failure(c.now())
		c.comp.errors.Add(1)
		return nil, computeFailed
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "1")
	resp, err := c.httpc.Do(req)
	if err != nil {
		p.failure(c.now())
		c.comp.errors.Add(1)
		return nil, computeFailed
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
		// Validated below.
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		p.success()
		c.comp.rejected.Add(1)
		return nil, computeRejected
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		p.failure(c.now())
		c.comp.errors.Add(1)
		return nil, computeFailed
	}

	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBytes+1))
	if err != nil || len(raw) > maxFetchBytes {
		p.failure(c.now())
		c.comp.errors.Add(1)
		return nil, computeFailed
	}
	// Same wire contract as cache fill: the CRC envelope is mandatory, and
	// an unverifiable response is a failure, never an answer.
	payload, err := ckptio.Decode(p.url+ComputePath, raw)
	if err != nil {
		p.failure(c.now())
		c.comp.corrupt.Add(1)
		c.comp.errors.Add(1)
		return nil, computeFailed
	}
	p.success()
	return payload, computeOK
}

// PeerMetrics is one node's scrape result in a cluster metrics rollup.
type PeerMetrics struct {
	// Addr is the peer's metrics label (URL without the scheme).
	Addr string
	// Snapshot is the peer's local registry snapshot; zero when Err is set.
	Snapshot obs.Snapshot
	// Err describes why the scrape failed ("" on success).
	Err string
}

// ScrapePeerMetrics fetches every peer's local GET /v1/metrics snapshot
// concurrently, each under the per-call timeout. Breakers are deliberately
// bypassed and outcomes do not feed the failure detector: a rollup is a
// read-only observation, and an operator asking "what does the fleet look
// like" wants the freshest possible answer about sick peers too.
// Unreachable peers come back with Err set, so the caller can report
// partial coverage instead of failing the rollup.
func (c *Client) ScrapePeerMetrics(ctx context.Context) []PeerMetrics {
	out := make([]PeerMetrics, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			out[i] = c.scrapeOne(ctx, p)
		}(i, p)
	}
	wg.Wait()
	return out
}

// scrapeOne fetches one peer's local metrics snapshot.
func (c *Client) scrapeOne(ctx context.Context, p *peer) PeerMetrics {
	pm := PeerMetrics{Addr: p.label}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/metrics", nil)
	if err != nil {
		pm.Err = err.Error()
		return pm
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		pm.Err = err.Error()
		return pm
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		pm.Err = resp.Status
		return pm
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxFetchBytes)).Decode(&pm.Snapshot); err != nil {
		pm.Err = err.Error()
		return pm
	}
	return pm
}
