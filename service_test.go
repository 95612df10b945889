package repro

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestFacadeServiceWithCluster drives the whole embedder story through
// the facade alone: build a Service, attach a ClusterClient, verify a
// protocol through its HTTP handler, and observe that an empty peer set degrades cleanly to local
// compute — without importing any internal package.
func TestFacadeServiceWithCluster(t *testing.T) {
	svc, err := NewService(ServiceConfig{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClusterClient(ClusterConfig{
		Peers:      []string{}, // no peers: every fetch is a degraded miss
		HedgeDelay: 10 * time.Millisecond,
		Retries:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	svc.SetCluster(cl)
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Drain(ctx)
	}()

	req := httptest.NewRequest(http.MethodPost, "/v1/verify?wait=1", strings.NewReader(`{"protocol": "illinois"}`))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"state":"done"`) {
		t.Fatalf("verify answered %d: %s", rec.Code, rec.Body)
	}
	if d := rec.Header().Get("X-CC-Disposition"); d != "queued" {
		t.Fatalf("disposition %q, want queued (peerless cluster must not invent hits)", d)
	}

	stats := svc.Stats()
	if stats.Cluster == nil {
		t.Fatal("ServiceStats.Cluster missing with a client attached")
	}
	if stats.Cluster.Degraded < 1 {
		t.Errorf("degraded fetches = %d, want >= 1 (the empty peer set was consulted)", stats.Cluster.Degraded)
	}
	if stats.Cluster.Hits != 0 {
		t.Errorf("peer fill hits = %d from zero peers", stats.Cluster.Hits)
	}
}

// TestFacadeRankClusterOwners: the exported placement function is
// deterministic and total over the node set.
func TestFacadeRankClusterOwners(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	ranked := RankClusterOwners(nodes, "0000000000000000000000000000000000000000000000000000000000000000")
	if len(ranked) != len(nodes) {
		t.Fatalf("ranked %d of %d nodes", len(ranked), len(nodes))
	}
	again := RankClusterOwners(nodes, "0000000000000000000000000000000000000000000000000000000000000000")
	for i := range ranked {
		if ranked[i] != again[i] {
			t.Fatal("ranking is not deterministic")
		}
	}
}
