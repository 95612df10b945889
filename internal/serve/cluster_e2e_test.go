package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckptio"
	"repro/internal/cluster"
	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/runctl"
)

// chaosNode is one in-process ccserved node: a Server fronted by an
// httptest.Server whose middleware can wedge (accept-then-hang) or corrupt
// the cluster-internal /v1/cache responses mid-traffic. Killing a node is
// just closing its HTTP front end.
type chaosNode struct {
	srv *Server
	reg *obs.Registry
	hs  *httptest.Server
	cl  *cluster.Client

	wedged      atomic.Bool
	corrupt     atomic.Bool
	release     chan struct{} // closed to unwedge hanging handlers
	releaseOnce sync.Once
}

// handler wraps the server's mux with the chaos middleware. Chaos is
// scoped to the cluster-internal paths (peer cache fill and compute
// forwarding): a wedged or corrupting node keeps answering client traffic,
// which is exactly the nasty partial-failure shape the cluster layer must
// survive.
func (n *chaosNode) handler() http.Handler {
	inner := n.srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, cluster.CachePathPrefix) || r.URL.Path == cluster.ComputePath {
			if n.wedged.Load() {
				select {
				case <-r.Context().Done(): // caller's CallTimeout fired
				case <-n.release:
				}
				return
			}
			if n.corrupt.Load() {
				rec := httptest.NewRecorder()
				inner.ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				if rec.Code == http.StatusOK && len(body) > 0 {
					body[len(body)/2] ^= 0xff // CRC must catch this
				}
				for k, vs := range rec.Header() {
					for _, v := range vs {
						w.Header().Add(k, v)
					}
				}
				w.WriteHeader(rec.Code)
				w.Write(body)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
}

// unwedge releases any handlers currently hanging in a wedge.
func (n *chaosNode) unwedge() {
	n.wedged.Store(false)
	n.releaseOnce.Do(func() { close(n.release) })
}

// kill closes the node's HTTP front end: in-flight peer calls fail,
// future ones get connection errors — a crashed process, as seen from the
// rest of the cluster.
func (n *chaosNode) kill() {
	n.unwedge()
	n.hs.CloseClientConnections()
	n.hs.Close()
}

// verify POSTs a waiting verify request to this node and returns the
// terminal JobStatus plus the submission disposition.
func (n *chaosNode) verify(t *testing.T, body string) (JobStatus, string) {
	t.Helper()
	resp, err := http.Post(n.hs.URL+"/v1/verify?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding verify response (http %d): %v", resp.StatusCode, err)
	}
	return st, resp.Header.Get("X-CC-Disposition")
}

func (n *chaosNode) counters() map[string]int64 { return n.reg.Snapshot().Counters }

// startChaosCluster brings up size nodes, each serve.Server sharing one
// obs registry with its cluster client (the production wiring: one
// /v1/metrics shows both sides), all peering with everyone. Timeouts are
// tight so failure detection, hedging and breaker trips happen in test
// time, not production time.
func startChaosCluster(t *testing.T, size int) []*chaosNode {
	t.Helper()
	return startChaosClusterCfg(t, size, func(int) Config { return Config{Workers: 2} })
}

// startChaosClusterCfg is startChaosCluster with per-node server Config
// (Metrics is always overridden with the node's shared registry).
func startChaosClusterCfg(t *testing.T, size int, cfgFor func(i int) Config) []*chaosNode {
	t.Helper()
	nodes := make([]*chaosNode, size)
	urls := make([]string, size)
	for i := range nodes {
		reg := obs.NewRegistry()
		cfg := cfgFor(i)
		cfg.Metrics = reg
		n := &chaosNode{
			srv:     newServer(t, cfg),
			reg:     reg,
			release: make(chan struct{}),
		}
		n.hs = httptest.NewServer(n.handler())
		nodes[i] = n
		urls[i] = n.hs.URL
	}
	for i, n := range nodes {
		cl, err := cluster.New(cluster.Config{
			Self:            n.hs.URL,
			Peers:           urls, // identical list everywhere; Self is filtered
			Metrics:         n.reg,
			FetchTimeout:    1500 * time.Millisecond,
			CallTimeout:     200 * time.Millisecond,
			HedgeDelay:      25 * time.Millisecond,
			BackoffBase:     5 * time.Millisecond,
			BackoffMax:      20 * time.Millisecond,
			BreakerCooldown: 250 * time.Millisecond,
			ProbeInterval:   100 * time.Millisecond,
			ComputeTimeout:  2 * time.Second,
			Seed:            int64(i + 1),
		})
		if err != nil {
			t.Fatalf("cluster.New(node %d): %v", i, err)
		}
		n.cl = cl
		n.srv.SetCluster(cl)
		n.srv.Start()
		cl.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.unwedge()
			n.cl.Close()
			n.hs.Close()
		}
	})
	return nodes
}

const illinoisReq = `{"protocol": "illinois"}`

// TestClusterPeerFillServesRemoteHit: a key verified on one node is
// answered by every other node from the peer cache — byte-identical, no
// second engine run — and the peer counters surface in GET /v1/metrics on
// both sides of the transfer.
func TestClusterPeerFillServesRemoteHit(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	a, b := nodes[0], nodes[1]

	first, disp := a.verify(t, illinoisReq)
	if first.State != StateDone || disp != DispositionQueued {
		t.Fatalf("seed verify on A: state=%s disposition=%s, want done/queued", first.State, disp)
	}

	filled, disp := b.verify(t, illinoisReq)
	if filled.State != StateDone || disp != DispositionPeer {
		t.Fatalf("verify on B: state=%s disposition=%s, want done/peer", filled.State, disp)
	}
	if string(filled.Report) != string(first.Report) {
		t.Errorf("peer-filled report differs from the origin's:\n%s\nvs\n%s", filled.Report, first.Report)
	}
	if got := b.counters()["engine_runs_total"]; got != 0 {
		t.Errorf("B ran the engine %d times for a peer-fillable key, want 0", got)
	}
	if got := b.counters()["peer_fill_hits_total"]; got < 1 {
		t.Errorf("B peer_fill_hits_total = %d, want >= 1", got)
	}
	if got := a.counters()["peer_cache_served_total"]; got < 1 {
		t.Errorf("A peer_cache_served_total = %d, want >= 1", got)
	}

	// The fill was cached locally: the next identical request is a plain
	// local hit, no cluster round trip.
	again, disp := b.verify(t, illinoisReq)
	if disp != DispositionHit || string(again.Report) != string(first.Report) {
		t.Errorf("repeat on B: disposition=%s, want hit with identical report", disp)
	}

	// The production scrape path agrees with the in-process registry.
	resp, err := http.Get(b.hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["peer_fill_hits_total"] < 1 {
		t.Errorf("GET /v1/metrics on B does not surface peer_fill_hits_total >= 1: %v", snap.Counters["peer_fill_hits_total"])
	}
}

// TestClusterDeadPeerDegradesToLocal: with every peer dead, a node
// answers correctly by local compute — a 1-node-alive cluster is exactly
// a single-node ccserved.
func TestClusterDeadPeerDegradesToLocal(t *testing.T) {
	nodes := startChaosCluster(t, 2)
	a, b := nodes[0], nodes[1]

	first, _ := a.verify(t, illinoisReq)
	if first.State != StateDone {
		t.Fatalf("seed verify on A: state=%s", first.State)
	}
	a.kill()

	began := time.Now()
	st, disp := b.verify(t, illinoisReq)
	elapsed := time.Since(began)
	if st.State != StateDone || disp != DispositionQueued {
		t.Fatalf("verify on B after A died: state=%s disposition=%s, want done/queued (local compute)", st.State, disp)
	}
	if string(st.Report) != string(first.Report) {
		t.Errorf("survivor's locally computed report differs from A's:\n%s\nvs\n%s", st.Report, first.Report)
	}
	// Bounded degradation: the dead peer costs at most the fetch budget
	// (1.5s here) on the very first miss, not an unbounded hang.
	if elapsed > 5*time.Second {
		t.Errorf("degraded verify took %v, want bounded", elapsed)
	}
	if got := b.counters()["peer_fill_hits_total"]; got != 0 {
		t.Errorf("B claims %d peer fills from a dead cluster", got)
	}
}

// TestClusterCorruptPeerNeverWrongAnswer: a peer serving bit-flipped
// cache responses is detected by the CRC envelope; the asking node treats
// it as a miss and computes the correct answer locally. Zero wrong
// verdicts, ever.
func TestClusterCorruptPeerNeverWrongAnswer(t *testing.T) {
	nodes := startChaosCluster(t, 2)
	a, b := nodes[0], nodes[1]

	first, _ := a.verify(t, illinoisReq)
	if first.State != StateDone {
		t.Fatalf("seed verify on A: state=%s", first.State)
	}
	a.corrupt.Store(true)

	st, disp := b.verify(t, illinoisReq)
	if st.State != StateDone || disp != DispositionQueued {
		t.Fatalf("verify on B against corrupt A: state=%s disposition=%s, want done/queued", st.State, disp)
	}
	if string(st.Report) != string(first.Report) {
		t.Errorf("report after corruption fallback differs from the truth:\n%s\nvs\n%s", st.Report, first.Report)
	}
	if got := b.counters()["peer_fill_corrupt_total"]; got < 1 {
		t.Errorf("B peer_fill_corrupt_total = %d, want >= 1 (corruption went undetected)", got)
	}
	if got := b.counters()["peer_fill_hits_total"]; got != 0 {
		t.Errorf("B counted %d peer fill hits from a corrupt-only peer", got)
	}
}

// TestClusterWedgedPeerHedged: the key's first-ranked owner accepts and
// hangs; the hedge deadline fires and the second owner answers. The
// client still gets a peer fill, quickly.
func TestClusterWedgedPeerHedged(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	b := nodes[1]

	// Seed the key on both of B's peers so whichever ranks second can
	// rescue the wedged first.
	first, _ := nodes[0].verify(t, illinoisReq)
	if first.State != StateDone {
		t.Fatalf("seed on node 0: state=%s", first.State)
	}
	if st, _ := nodes[2].verify(t, illinoisReq); st.State != StateDone {
		t.Fatalf("seed on node 2: state=%s", st.State)
	}

	// Wedge B's first-ranked owner for this key. Rank over the same URL
	// strings the clients were built from reproduces their owner order.
	key := first.CacheKey
	owners := cluster.Rank([]string{nodes[0].hs.URL, nodes[2].hs.URL}, key)
	for _, n := range []*chaosNode{nodes[0], nodes[2]} {
		if n.hs.URL == owners[0] {
			n.wedged.Store(true)
		}
	}

	began := time.Now()
	st, disp := b.verify(t, illinoisReq)
	elapsed := time.Since(began)
	if st.State != StateDone || disp != DispositionPeer {
		t.Fatalf("verify on B with wedged owner: state=%s disposition=%s, want done/peer", st.State, disp)
	}
	if string(st.Report) != string(first.Report) {
		t.Errorf("hedged report differs from the origin's")
	}
	if got := b.counters()["peer_fill_hedges_total"]; got < 1 {
		t.Errorf("B peer_fill_hedges_total = %d, want >= 1", got)
	}
	// The wedge costs at most the hedge delay plus the healthy peer's
	// round trip — far under the 200ms wedge-detector timeout.
	if elapsed > 2*time.Second {
		t.Errorf("hedged verify took %v, want well bounded", elapsed)
	}
}

// TestClusterChaosUnderTraffic is the full drill: three nodes under
// concurrent mixed traffic while one peer wedges and another is killed
// mid-stream. Every response must be a terminal done with a report
// byte-identical to every other response for the same key (Theorem 1
// determinism makes byte equality the strongest possible "no wrong
// verdicts" check), and peer fill must have actually happened before the
// kill.
func TestClusterChaosUnderTraffic(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]

	requests := []string{
		illinoisReq,
		`{"protocol": "mesi"}`,
		`{"protocol": "synapse"}`,
		`{"protocol": "berkeley"}`,
		`{"protocol": "msi", "engine": "enum-strict", "n": 3}`,
	}
	// Seed everything on A so the early phase is pure peer fill from A.
	for _, req := range requests {
		if st, _ := a.verify(t, req); st.State != StateDone {
			t.Fatalf("seeding %s on A: state=%s error=%s", req, st.State, st.Error)
		}
	}

	var mu sync.Mutex
	reports := map[string]string{} // cache key -> first report seen
	record := func(st JobStatus) {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := reports[st.CacheKey]; ok {
			if prev != string(st.Report) {
				t.Errorf("divergent reports for key %s under chaos", st.CacheKey)
			}
			return
		}
		reports[st.CacheKey] = string(st.Report)
	}

	const perWorker = 12
	var filledBeforeKill int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Traffic targets the two survivors; A only serves peer fills
			// (and then dies).
			target := []*chaosNode{b, c}[w%2]
			for i := 0; i < perWorker; i++ {
				st, _ := target.verify(t, requests[(w+i)%len(requests)])
				if st.State != StateDone {
					t.Errorf("worker %d request %d on node: state=%s error=%s", w, i, st.State, st.Error)
					continue
				}
				record(st)
				if i == perWorker/3 && w == 0 {
					// Mid-traffic chaos, phase 1: C's cache endpoint wedges.
					atomic.StoreInt64(&filledBeforeKill,
						b.counters()["peer_fill_hits_total"]+c.counters()["peer_fill_hits_total"])
					c.wedged.Store(true)
				}
				if i == 2*perWorker/3 && w == 0 {
					// Phase 2: A dies outright.
					a.kill()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := atomic.LoadInt64(&filledBeforeKill); got < 1 {
		t.Errorf("no peer fill happened before the chaos phases (hits=%d); the drill never exercised the cluster path", got)
	}
	if len(reports) != len(requests) {
		t.Errorf("saw %d distinct keys, want %d", len(reports), len(requests))
	}
	// The survivors must still answer cleanly after the dust settles.
	c.unwedge()
	for _, n := range []*chaosNode{b, c} {
		st, _ := n.verify(t, illinoisReq)
		if st.State != StateDone {
			t.Errorf("post-chaos verify: state=%s error=%s", st.State, st.Error)
		}
		record(st)
	}
}

// submit POSTs a verify request to this node without waiting and returns
// the status, HTTP code, and the Retry-After and disposition headers.
func (n *chaosNode) submit(t *testing.T, body string) (JobStatus, int, http.Header) {
	t.Helper()
	resp, err := http.Post(n.hs.URL+"/v1/verify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response (http %d): %v", resp.StatusCode, err)
	}
	return st, resp.StatusCode, resp.Header
}

// waitRunning polls a job on this node until it is running.
func (n *chaosNode) waitRunning(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(n.hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// TestClusterSaturationForwardsCompute is the tentpole's overload path: a
// node whose pool and queue are full hands the job to a peer with headroom
// and answers the peer's (validated) result, instead of rejecting. With no
// reachable peer the same submission degrades to the single-node 429 +
// Retry-After.
func TestClusterSaturationForwardsCompute(t *testing.T) {
	nodes := startChaosClusterCfg(t, 2, func(i int) Config {
		if i == 1 {
			return Config{Workers: 1, QueueDepth: 1}
		}
		return Config{Workers: 2}
	})
	a, b := nodes[0], nodes[1]

	// Wedge B's own pool (not its HTTP surface): its worker blocks until
	// the gate opens, so B is saturated but alive — the exact state where
	// forwarding must kick in.
	gate := make(chan struct{})
	defer close(gate)
	b.srv.runJob = func(ctx context.Context, _ *fsm.Protocol, key string, _ JobOptions) (*Report, bool, error) {
		select {
		case <-gate:
			return &Report{CacheKey: key, Verdict: VerdictClean}, true, nil
		case <-ctx.Done():
			return nil, false, runctl.FromContext(ctx)
		}
	}

	first, code, _ := b.submit(t, `{"protocol": "illinois", "engine": "enum-strict", "n": 2}`)
	if code != http.StatusAccepted {
		t.Fatalf("first: http %d", code)
	}
	b.waitRunning(t, first.ID)
	if _, code, _ := b.submit(t, `{"protocol": "illinois", "engine": "enum-strict", "n": 3}`); code != http.StatusAccepted {
		t.Fatalf("second: http %d", code)
	}

	// Queue full: the distinct third job is forwarded to A, which computes
	// it for real; B answers done immediately with A's validated report.
	st, code, hdr := b.submit(t, `{"protocol": "dragon"}`)
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("saturated submit: http %d state %s error %q, want forwarded completion", code, st.State, st.Error)
	}
	if disp := hdr.Get("X-CC-Disposition"); disp != DispositionForwarded {
		t.Fatalf("disposition = %q, want %q", disp, DispositionForwarded)
	}
	if len(st.Report) == 0 || !strings.Contains(string(st.Report), `"verdict":"clean"`) {
		t.Fatalf("forwarded report: %s", st.Report)
	}
	if got := b.counters()["forwarded_total"]; got != 1 {
		t.Errorf("B forwarded_total = %d, want 1", got)
	}
	if got := a.counters()["peer_compute_served_total"]; got != 1 {
		t.Errorf("A peer_compute_served_total = %d, want 1", got)
	}

	// A cached what it computed; its own answer is byte-identical.
	fromA, _ := a.verify(t, `{"protocol": "dragon"}`)
	if string(fromA.Report) != string(st.Report) {
		t.Error("A's own report differs from what it served the saturated peer")
	}

	// With the only peer dead, saturation degrades to the single-node
	// rejection: 429 carrying Retry-After.
	a.kill()
	_, code, hdr = b.submit(t, `{"protocol": "synapse"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit with dead peer: http %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("degraded rejection missing Retry-After")
	}
}

// TestClusterBatchChaos is the acceptance drill: a full protocols×mutants
// sweep (53 jobs) streamed from one node of a three-node cluster while one
// peer is killed and the other wedges mid-batch. Every job must finish with
// a verdict byte-identical to an isolated single-node baseline, the summary
// must report zero failures with honest dispositions, and the chaos must
// not leak goroutines.
func TestClusterBatchChaos(t *testing.T) {
	// Baseline: the same sweep on an isolated single node, keyed by content
	// address. Theorem-1 determinism makes byte equality the strongest
	// possible "no wrong verdicts" check.
	baseTC := startUnixServer(t, newServer(t, Config{Workers: 4}))
	baseLines, baseSummary, code := baseTC.batchStream(t, fullSweepBody, "")
	if code != http.StatusOK || baseSummary.Failed != 0 {
		t.Fatalf("baseline sweep: http %d summary %+v", code, baseSummary)
	}
	baseline := make(map[string]string, len(baseLines))
	for _, l := range baseLines {
		baseline[l.CacheKey] = string(l.Report)
	}

	nodes := startChaosClusterCfg(t, 3, func(int) Config {
		// A short fixed hedge keeps straggler re-dispatch (against the
		// wedged peer) inside test time.
		return Config{Workers: 2, BatchHedge: 250 * time.Millisecond}
	})
	a, b, c := nodes[0], nodes[1], nodes[2]
	g0 := runtime.NumGoroutine()

	resp, err := http.Post(b.hs.URL+"/v1/verify/batch", "application/json", strings.NewReader(fullSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: http %d", resp.StatusCode)
	}
	var (
		lines   []BatchLine
		summary BatchSummary
		total   = baseSummary.Total
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		if probe.Summary {
			if err := json.Unmarshal(raw, &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var line BatchLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
		switch len(lines) {
		case total / 3:
			a.kill() // SIGKILL equivalent: the process vanishes mid-batch
		case 2 * total / 3:
			c.wedged.Store(true) // and the other peer stops answering
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading batch stream: %v", err)
	}

	if summary.Total != total || summary.Failed != 0 || summary.Done != total {
		t.Fatalf("summary = %+v, want %d done and zero failed despite the chaos", summary, total)
	}
	if total < 50 {
		t.Fatalf("sweep expanded to %d jobs, want >= 50", total)
	}
	valid := map[string]bool{BatchCached: true, BatchComputed: true, BatchForwarded: true, BatchRetried: true}
	for _, l := range lines {
		if l.State != StateDone {
			t.Errorf("job %d (%s): state %s error %q", l.Index, l.Protocol, l.State, l.Error)
		}
		if !valid[l.Disposition] {
			t.Errorf("job %d: disposition %q", l.Index, l.Disposition)
		}
		want, ok := baseline[l.CacheKey]
		if !ok {
			t.Errorf("job %d: key %s missing from the baseline sweep", l.Index, l.CacheKey)
			continue
		}
		if string(l.Report) != want {
			t.Errorf("job %d (%s): report differs from the single-node baseline", l.Index, l.Protocol)
		}
	}
	// The drill must actually have exercised the cluster path: before the
	// chaos phases both peers were healthy owners for ~2/3 of the keys.
	if got := b.counters()["compute_forward_hits_total"]; got < 1 {
		t.Errorf("compute_forward_hits_total = %d on the batch node, want >= 1", got)
	}

	// No goroutine leaks: once the wedge is released and the stream has
	// ended, everything the chaos spawned must drain.
	c.unwedge()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= g0+16 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines: %d at start, %d after chaos drill", g0, runtime.NumGoroutine())
}

// TestPeerPayloadValidation pins validReport through the peer-fill path: a
// stub peer answers every cache lookup with a CRC-valid envelope around the
// row's payload, so the cluster layer counts a hit and only the serve-side
// check stands between the bytes and the cache. A rejected payload is a
// miss and bumps peer_fill_rejected_total; the valid one is served as is.
func TestPeerPayloadValidation(t *testing.T) {
	_, canonical, err := ResolveSpec("illinois", "")
	if err != nil {
		t.Fatal(err)
	}
	opts := JobOptions{}
	if err := opts.normalize(); err != nil {
		t.Fatal(err)
	}
	key := CacheKey(canonical, opts)
	opts.Workers = 8
	otherKey := CacheKey(canonical, opts)
	doc := func(schema int, key string) string {
		return fmt.Sprintf(`{"schema": %d, "protocol": "Illinois", "cache_key": %q, "verdict": "clean"}`, schema, key)
	}
	valid := doc(ReportSchema, key)

	var served atomic.Pointer[string]
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != cluster.CachePathPrefix+key {
			http.NotFound(w, r)
			return
		}
		w.Write(ckptio.Encode([]byte(*served.Load())))
	}))
	defer peer.Close()
	reg := obs.NewRegistry()
	srv := newServer(t, Config{Metrics: reg})
	cl, err := cluster.New(cluster.Config{
		Self:    "http://127.0.0.1:1",
		Peers:   []string{peer.URL},
		Metrics: reg,
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv.SetCluster(cl)

	rejected := int64(0)
	for _, tc := range []struct {
		name    string
		payload string
		ok      bool
	}{
		{"valid", valid, true},
		{"wrong-cache-key", doc(ReportSchema, otherKey), false},
		{"wrong-schema", doc(ReportSchema+1, key), false},
		{"truncated", valid[:len(valid)-1], false},
		{"trailing-garbage", valid + "garbage", false},
		{"array", "[" + valid + "]", false},
	} {
		served.Store(&tc.payload)
		got, ok := srv.peerFill(key)
		if ok != tc.ok || (ok && string(got) != tc.payload) {
			t.Errorf("%s: peerFill = %q, %t; want ok=%t", tc.name, got, ok, tc.ok)
		}
		if !ok {
			rejected++
		}
		if n := reg.Snapshot().Counters["peer_fill_rejected_total"]; n != rejected {
			t.Errorf("%s: peer_fill_rejected_total = %d, want %d", tc.name, n, rejected)
		}
	}
}
