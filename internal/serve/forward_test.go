package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
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
