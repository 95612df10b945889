package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/ckptio"
	"repro/internal/cluster"
	"repro/internal/protocols"
)

// TestClusterComputeEndpoint pins the compute-forward receiving side: a
// request without the forwarded marker is refused outright (the structural
// loop-prevention guarantee — no marker, no hop), and a marked request runs
// the job and answers the report bytes in the CRC envelope.
func TestClusterComputeEndpoint(t *testing.T) {
	srv := newServer(t, Config{Workers: 2})
	tc := startUnixServer(t, srv)

	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	canonical := ccpsl.Format(p)
	body, err := json.Marshal(computeRequest{Spec: canonical})
	if err != nil {
		t.Fatal(err)
	}
	post := func(marker bool) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, "http://ccserved"+cluster.ComputePath, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if marker {
			req.Header.Set(cluster.ForwardedHeader, "1")
		}
		resp, err := tc.c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	// No marker: 400, and no job ran. A forwarded job re-forwarded to this
	// endpoint would arrive markerless only through a bug — refusing it is
	// what makes a forwarding loop structurally impossible.
	resp, _ := post(false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("markerless compute: http %d, want 400", resp.StatusCode)
	}
	if s := tc.stats(t); s.EngineRuns != 0 {
		t.Fatalf("markerless compute ran the engine %d times", s.EngineRuns)
	}

	resp, data := post(true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded compute: http %d (%s)", resp.StatusCode, data)
	}
	payload, err := ckptio.Decode("compute-response", data)
	if err != nil {
		t.Fatalf("decoding compute envelope: %v", err)
	}
	opts := JobOptions{}
	if err := opts.normalize(); err != nil {
		t.Fatal(err)
	}
	key := CacheKey(canonical, opts)
	if !srv.validReport(key, payload) {
		t.Fatalf("compute answered an invalid report for its own key: %s", payload)
	}
	s := tc.stats(t)
	if s.PeerComputeServed != 1 {
		t.Errorf("peer_compute_served = %d, want 1", s.PeerComputeServed)
	}
	// The computed result was cached: an interactive request for the same
	// job is now a hit.
	st, code := tc.post(t, `{"protocol": "illinois"}`, true)
	if code != http.StatusOK || !st.Cached {
		t.Errorf("verify after forwarded compute: http %d cached %t, want a cache hit", code, st.Cached)
	}
}

// TestRoutedSubmission pins admission for a routed submission, one whose
// caller has already made the cluster decision and charged the tenant's
// bucket (a batch-expanded job, a forwarded compute job). With the
// tenant's bucket empty, a peer holding the key and the queue full, it is
// not rate-limited, asks no peer for the key, forwards nothing and is
// rejected busy; the same submission unrouted is rate-limited first. The
// last two submissions show the stub peer really serves fills and compute.
func TestRoutedSubmission(t *testing.T) {
	p, canonical, err := ResolveSpec("illinois", "")
	if err != nil {
		t.Fatal(err)
	}
	opts := JobOptions{}
	if err := opts.normalize(); err != nil {
		t.Fatal(err)
	}
	key := CacheKey(canonical, opts)
	report := fmt.Sprintf(`{"schema": %d, "protocol": "Illinois", "cache_key": %q, "verdict": "clean"}`, ReportSchema, key)
	var fills, computes atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case cluster.CachePathPrefix + key:
			fills.Add(1)
		case cluster.ComputePath:
			computes.Add(1)
		default:
			http.NotFound(w, r)
			return
		}
		w.Write(ckptio.Encode([]byte(report)))
	}))
	defer peer.Close()

	// The pool is never started, so the one queued job below keeps the
	// one-slot queue full.
	srv := newServer(t, Config{QueueDepth: 1, TenantRate: 0.001, TenantBurst: 1})
	cl, err := cluster.New(cluster.Config{Self: "http://127.0.0.1:1", Peers: []string{peer.URL}, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv.SetCluster(cl)

	dragon, dragonCanonical, err := ResolveSpec("dragon", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, disp, err := srv.SubmitEx(dragon, dragonCanonical, opts, SubmitOptions{Tenant: "filler"}); err != nil || disp != DispositionQueued {
		t.Fatalf("filling the queue: disposition %q, err %v", disp, err)
	}
	if ok, _ := srv.buckets.take(CanonicalTenant("team-a"), 1); !ok {
		t.Fatal("team-a's fresh bucket refused its only token")
	}

	routed := SubmitOptions{Tenant: "team-a", Routed: true}
	if _, disp, err := srv.SubmitEx(p, canonical, opts, routed); !errors.Is(err, ErrBusy) {
		t.Fatalf("routed submission: disposition %q, err %v; want ErrBusy", disp, err)
	}
	if _, disp, err := srv.SubmitEx(p, canonical, opts, SubmitOptions{Tenant: "team-a"}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("unrouted submission: disposition %q, err %v; want ErrRateLimited", disp, err)
	}
	if n, m := fills.Load(), computes.Load(); n != 0 || m != 0 {
		t.Fatalf("peer asked %d times for the key and %d times to compute, want 0 and 0", n, m)
	}

	if _, disp, err := srv.SubmitEx(p, canonical, opts, SubmitOptions{Tenant: "team-b"}); err != nil || disp != DispositionPeer {
		t.Fatalf("unrouted submission of a fresh tenant: disposition %q, err %v; want a peer fill", disp, err)
	}
	if _, disp, err := srv.SubmitEx(p, canonical, opts, SubmitOptions{Tenant: "team-c", NoCache: true}); err != nil || disp != DispositionForwarded {
		t.Fatalf("unrouted uncached submission on a full queue: disposition %q, err %v; want a forward", disp, err)
	}
	if n, m := fills.Load(), computes.Load(); n != 1 || m != 1 {
		t.Fatalf("peer asked %d times for the key and %d times to compute, want 1 and 1", n, m)
	}
}
