package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

// testClient drives a Server over a real unix-domain socket, the
// deployment shape the e2e acceptance criteria pin down.
type testClient struct {
	c *http.Client
}

// startUnixServer starts srv's worker pool and HTTP front end on a unix
// socket and returns a client bound to it. Cleanup stops the HTTP side;
// tests that care about drain call srv.Drain themselves.
func startUnixServer(t *testing.T, srv *Server) *testClient {
	t.Helper()
	dir, err := os.MkdirTemp("", "ccserve") // short path: sun_path is ~104 bytes
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	sock := filepath.Join(dir, "s.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return &testClient{c: &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", sock)
			},
		},
	}}
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// post POSTs a verify request and decodes the JobStatus.
func (tc *testClient) post(t *testing.T, body string, wait bool) (JobStatus, int) {
	t.Helper()
	url := "http://ccserved/v1/verify"
	if wait {
		url += "?wait=1"
	}
	resp, err := tc.c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding response (http %d): %v", resp.StatusCode, err)
	}
	return st, resp.StatusCode
}

// get GETs a path and returns the body and status code.
func (tc *testClient) get(t *testing.T, path string) ([]byte, int) {
	t.Helper()
	resp, err := tc.c.Get("http://ccserved" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

func (tc *testClient) stats(t *testing.T) Stats {
	t.Helper()
	data, code := tc.get(t, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("statsz: http %d", code)
	}
	var s Stats
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestE2EUnixSocket is the acceptance e2e: concurrent identical requests
// over a unix socket trigger exactly one engine run (dedup), repeats are
// served from the cache byte-identically, different requests miss, and a
// slow job can be canceled — all under -race via the CI test flags.
func TestE2EUnixSocket(t *testing.T) {
	srv := newServer(t, Config{Workers: 4, QueueDepth: 32})
	tc := startUnixServer(t, srv)

	// Phase 1: N concurrent identical requests → exactly one engine run.
	const clients = 12
	reports := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := tc.c.Post("http://ccserved/v1/verify?wait=1", "application/json",
				strings.NewReader(`{"protocol": "illinois"}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			if st.State != StateDone {
				t.Errorf("client %d: state %s (err %q)", i, st.State, st.Error)
				return
			}
			reports[i] = string(st.Report)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if reports[i] != reports[0] {
			t.Fatalf("client %d report differs from client 0:\n%s\nvs\n%s", i, reports[i], reports[0])
		}
	}
	// Report bytes travel embedded in the JobStatus envelope, so what must
	// be byte-identical across responses is the full Report field; the
	// substring check just pins the verdict.
	if reports[0] == "" || !strings.Contains(reports[0], `"verdict":"clean"`) {
		t.Fatalf("unexpected report: %s", reports[0])
	}
	st := tc.stats(t)
	if st.EngineRuns != 1 {
		t.Errorf("engine runs = %d, want exactly 1 (dedup)", st.EngineRuns)
	}
	if st.CacheHits+st.Coalesced != clients-1 {
		t.Errorf("hits %d + coalesced %d, want %d", st.CacheHits, st.Coalesced, clients-1)
	}

	// Phase 2: repeat request → cache hit, byte-identical report.
	rep, code := tc.post(t, `{"protocol": "illinois"}`, true)
	if code != http.StatusOK || !rep.Cached || rep.State != StateDone {
		t.Fatalf("repeat: http %d cached %t state %s", code, rep.Cached, rep.State)
	}
	if string(rep.Report) != reports[0] {
		t.Errorf("cached report not byte-identical to fresh report")
	}

	// Phase 3: a different protocol and different options both miss.
	dragon, code := tc.post(t, `{"protocol": "dragon"}`, true)
	if code != http.StatusOK || dragon.Cached || dragon.State != StateDone {
		t.Fatalf("dragon: http %d cached %t state %s err %q", code, dragon.Cached, dragon.State, dragon.Error)
	}
	if dragon.CacheKey == rep.CacheKey {
		t.Error("dragon shares illinois cache key")
	}
	enumRep, code := tc.post(t, `{"protocol": "illinois", "engine": "enum-strict", "n": 3}`, true)
	if code != http.StatusOK || enumRep.Cached || enumRep.State != StateDone {
		t.Fatalf("enum: http %d cached %t state %s err %q", code, enumRep.Cached, enumRep.State, enumRep.Error)
	}
	if !strings.Contains(string(enumRep.Report), `"engine":"enum-strict"`) {
		t.Errorf("enum report: %s", enumRep.Report)
	}

	// Phase 4: inline spec spelled differently from the library protocol
	// still hits the library protocol's cache entry (content addressing
	// over the canonical form).
	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(ccpsl.Format(p))
	if err != nil {
		t.Fatal(err)
	}
	inline, code := tc.post(t, fmt.Sprintf(`{"spec": %s}`, spec), true)
	if code != http.StatusOK || !inline.Cached {
		t.Fatalf("inline spec: http %d cached %t", code, inline.Cached)
	}
	if string(inline.Report) != reports[0] {
		t.Error("inline spec report differs from protocol-name report")
	}

	// Phase 5: protocols listing and health.
	names, code := tc.get(t, "/v1/protocols")
	if code != http.StatusOK || !strings.Contains(string(names), "illinois") {
		t.Fatalf("protocols: http %d %s", code, names)
	}
	if body, code := tc.get(t, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: http %d %s", code, body)
	}
}

// blockingServer installs a runJob stub that blocks until its gate closes
// (or its context is canceled), for cancel/drain/admission tests.
func blockingServer(t *testing.T, cfg Config) (*Server, chan struct{}) {
	srv := newServer(t, cfg)
	gate := make(chan struct{})
	srv.runJob = func(ctx context.Context, _ *fsm.Protocol, key string, _ JobOptions) (*Report, bool, error) {
		select {
		case <-gate:
			return &Report{CacheKey: key, Verdict: VerdictClean}, true, nil
		case <-ctx.Done():
			return nil, false, runctl.FromContext(ctx)
		}
	}
	return srv, gate
}

func TestE2ECancel(t *testing.T) {
	srv, gate := blockingServer(t, Config{Workers: 1, QueueDepth: 8})
	defer close(gate)
	tc := startUnixServer(t, srv)

	st, code := tc.post(t, `{"protocol": "illinois"}`, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	req, err := http.NewRequest(http.MethodDelete, "http://ccserved/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	data, code := tc.get(t, "/v1/jobs/"+st.ID+"?wait=1")
	if code != http.StatusOK {
		t.Fatalf("poll after cancel: http %d %s", code, data)
	}
	var final JobStatus
	if err := json.Unmarshal(data, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if s := tc.stats(t); s.JobsCanceled != 1 {
		t.Errorf("jobs_canceled = %d", s.JobsCanceled)
	}
}

func TestE2EAdmissionControl(t *testing.T) {
	srv, gate := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
	tc := startUnixServer(t, srv)

	// First job occupies the worker; distinct second job fills the queue.
	first, code := tc.post(t, `{"protocol": "illinois"}`, false)
	if code != http.StatusAccepted {
		t.Fatalf("first: http %d", code)
	}
	waitForState(t, tc, first.ID, StateRunning)
	if _, code := tc.post(t, `{"protocol": "dragon"}`, false); code != http.StatusAccepted {
		t.Fatalf("second: http %d", code)
	}
	// Queue full → 429 carrying Retry-After, so well-behaved clients back
	// off instead of hammering a saturated node.
	resp, err := tc.c.Post("http://ccserved/v1/verify", "application/json",
		strings.NewReader(`{"protocol": "firefly"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third: http %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 rejection missing the Retry-After header")
	}
	st, code := tc.post(t, `{"protocol": "dragon"}`, false)
	if code != http.StatusAccepted || !st.Coalesced {
		t.Fatalf("coalesce under pressure: http %d coalesced %t", code, st.Coalesced)
	}
	close(gate)
	waitForState(t, tc, first.ID, StateDone)
	if s := tc.stats(t); s.RejectedBusy != 1 {
		t.Errorf("rejected_busy = %d", s.RejectedBusy)
	}
}

func waitForState(t *testing.T, tc *testClient, id, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		data, _ := tc.get(t, "/v1/jobs/"+id)
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestE2EDrain pins the drain semantics: intake closes (healthz 503, new
// verifies rejected), in-flight jobs run to completion, Drain returns nil.
func TestE2EDrain(t *testing.T) {
	srv, gate := blockingServer(t, Config{Workers: 2, QueueDepth: 8})
	tc := startUnixServer(t, srv)

	st, code := tc.post(t, `{"protocol": "illinois"}`, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	waitForState(t, tc, st.ID, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitForDraining(t, tc)

	if _, code := tc.get(t, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: http %d, want 503", code)
	}
	if _, code := tc.post(t, `{"protocol": "dragon"}`, false); code != http.StatusServiceUnavailable {
		t.Errorf("verify while draining: http %d, want 503", code)
	}

	close(gate) // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitForState(t, tc, st.ID, StateDone)
}

// TestE2EForcedDrain: when the drain deadline expires, in-flight jobs are
// canceled and Drain reports the forced stop.
func TestE2EForcedDrain(t *testing.T) {
	srv, gate := blockingServer(t, Config{Workers: 1, QueueDepth: 8})
	defer close(gate)
	tc := startUnixServer(t, srv)

	st, code := tc.post(t, `{"protocol": "illinois"}`, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	waitForState(t, tc, st.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("forced drain must report an error")
	}
	waitForState(t, tc, st.ID, StateCanceled)
}

func waitForDraining(t *testing.T, tc *testClient) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tc.stats(t).Draining {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("server never started draining")
}

// TestViolationVerdictAuditedAndCached: a fault-injected mutant yields a
// violations verdict whose witnesses the campaign auditor confirms; the
// confirmed verdict is cached and the repeat request hits byte-identically.
func TestViolationVerdictAuditedAndCached(t *testing.T) {
	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, Config{Workers: 2, QueueDepth: 8})
	tc := startUnixServer(t, srv)

	found := false
	for _, m := range mutate.Catalog(p) {
		// Mutant names carry a "!" marker the ccpsl grammar rejects.
		m.Protocol.Name = strings.ReplaceAll(m.Protocol.Name, "!", "-")
		spec, err := json.Marshal(ccpsl.Format(m.Protocol))
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"spec": %s, "engine": "enum-strict", "n": 3}`, spec)
		st, code := tc.post(t, body, true)
		if code != http.StatusOK || st.State != StateDone {
			// Some mutants break the spec outright; those fail, which is fine.
			continue
		}
		var rep Report
		if err := json.Unmarshal(st.Report, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != VerdictViolations {
			continue
		}
		found = true
		for _, v := range rep.Violations {
			if !v.Confirmed {
				t.Errorf("mutant %s!%s: witness unconfirmed: %s", m.Kind, m.Rule, v.AuditNote)
			}
		}
		// Confirmed violation verdicts are cacheable: repeat must hit.
		again, code := tc.post(t, body, true)
		if code != http.StatusOK || !again.Cached {
			t.Errorf("mutant %s!%s repeat: http %d cached %t", m.Kind, m.Rule, code, again.Cached)
		}
		if string(again.Report) != string(st.Report) {
			t.Errorf("mutant %s!%s: cached violation report not byte-identical", m.Kind, m.Rule)
		}
		break
	}
	if !found {
		t.Fatal("no mutant produced a violations verdict")
	}
	if s := tc.stats(t); s.AuditRejected != 0 {
		t.Errorf("audit_rejected = %d, want 0", s.AuditRejected)
	}
}

// TestAuditRejectedVerdictNotCached: a verdict flagged uncacheable (the
// audit-before-cache gate) is served but never stored, so the repeat
// request runs the engine again.
func TestAuditRejectedVerdictNotCached(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, QueueDepth: 8})
	runs := 0
	var mu sync.Mutex
	srv.runJob = func(_ context.Context, _ *fsm.Protocol, key string, _ JobOptions) (*Report, bool, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		return &Report{CacheKey: key, Verdict: VerdictViolations}, false, nil
	}
	tc := startUnixServer(t, srv)

	for i := 0; i < 2; i++ {
		st, code := tc.post(t, `{"protocol": "illinois"}`, true)
		if code != http.StatusOK || st.State != StateDone || st.Cached {
			t.Fatalf("round %d: http %d state %s cached %t", i, code, st.State, st.Cached)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 2 {
		t.Errorf("engine ran %d times, want 2 (uncacheable verdict)", runs)
	}
	if s := tc.stats(t); s.AuditRejected != 2 {
		t.Errorf("audit_rejected = %d", s.AuditRejected)
	}
}

// TestPanicIsolation: a panicking verification fails its own job only; the
// worker survives and serves the next request.
func TestPanicIsolation(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, QueueDepth: 8})
	first := true
	srv.runJob = func(_ context.Context, _ *fsm.Protocol, key string, _ JobOptions) (*Report, bool, error) {
		if first {
			first = false
			panic("engine bug")
		}
		return &Report{CacheKey: key, Verdict: VerdictClean}, true, nil
	}
	tc := startUnixServer(t, srv)

	st, _ := tc.post(t, `{"protocol": "illinois"}`, true)
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("state %s err %q", st.State, st.Error)
	}
	st, _ = tc.post(t, `{"protocol": "illinois", "no_cache": true}`, true)
	if st.State != StateDone {
		t.Fatalf("after panic: state %s err %q", st.State, st.Error)
	}
	if s := tc.stats(t); s.Panics != 1 {
		t.Errorf("panics = %d", s.Panics)
	}
}

// TestBadRequests pins the 400 surface.
func TestBadRequests(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, QueueDepth: 2})
	tc := startUnixServer(t, srv)
	for _, body := range []string{
		`{`, // malformed JSON
		`{}`,
		`{"protocol": "illinois", "spec": "protocol X"}`,
		`{"protocol": "no-such-protocol"}`,
		`{"protocol": "illinois", "engine": "bogus"}`,
		`{"protocol": "illinois", "engine": "enum-strict", "n": 99}`,
	} {
		if _, code := tc.post(t, body, true); code != http.StatusBadRequest {
			t.Errorf("body %q: http %d, want 400", body, code)
		}
	}
	if _, code := tc.get(t, "/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: http %d", code)
	}
}

// TestMetricsEndpoint: GET /v1/metrics serves the observability-registry
// snapshot — the service counters under their canonical *_total names, the
// per-protocol latency histogram, and the engine counters of the
// verification runs — while /statsz reads the same counters under its
// stable snake_case names plus the schema stamp.
func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(t, Config{Workers: 2})
	tc := startUnixServer(t, srv)

	st, code := tc.post(t, `{"protocol": "illinois"}`, true)
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("verify: http %d state %s (%s)", code, st.State, st.Error)
	}
	if st, _ = tc.post(t, `{"protocol": "illinois"}`, true); !st.Cached {
		t.Fatal("second identical request was not served from the cache")
	}

	data, code := tc.get(t, "/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: http %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != obs.SnapshotSchema {
		t.Errorf("snapshot schema = %d, want %d", snap.Schema, obs.SnapshotSchema)
	}
	for name, want := range map[string]int64{
		"verify_requests_total": 2,
		"cache_hits_total":      1,
		"engine_runs_total":     1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Counters["expand_levels_total"] == 0 {
		t.Error("engine counters missing from the server registry (expand_levels_total = 0)")
	}
	if snap.Histograms["verify_latency_seconds.Illinois"].Count != 1 {
		t.Errorf("verify_latency_seconds.Illinois count = %d, want 1 (histograms: %v)",
			snap.Histograms["verify_latency_seconds.Illinois"].Count, snap.Histograms)
	}

	s := tc.stats(t)
	if s.Schema != StatszSchema {
		t.Errorf("statsz schema = %d, want %d", s.Schema, StatszSchema)
	}
	if s.Requests != 2 || s.CacheHits != 1 || s.EngineRuns != 1 {
		t.Errorf("statsz requests=%d cache_hits=%d engine_runs=%d, want 2/1/1",
			s.Requests, s.CacheHits, s.EngineRuns)
	}
}

// TestSharedMetricsRegistry: a caller-supplied Config.Metrics registry is
// used as-is, so several servers (or a host process) can aggregate.
func TestSharedMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newServer(t, Config{Metrics: reg})
	if srv.Metrics() != reg {
		t.Fatal("server did not adopt the supplied registry")
	}
	srv.stats.requests.Inc()
	if got := reg.Counter("verify_requests_total").Value(); got != 1 {
		t.Errorf("shared registry verify_requests_total = %d, want 1", got)
	}
}
