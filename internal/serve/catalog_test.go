package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// TestMetricsCatalog fails for any metric a serving node registers that
// docs/observability.md does not list. The server joins a cluster, so the
// peer families register, and serves the traffic that registers the lazy
// names: a tenant's verify and its rate-limit refusal, and a simulate. A
// dotted name is one member of a family (tenant_queued.<tenant>), which the
// doc lists as `tenant_queued.<...>`.
func TestMetricsCatalog(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "observability.md"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := newServer(t, Config{Workers: 1, Metrics: reg, TenantRate: 0.01, TenantBurst: 1})
	cl, err := cluster.New(cluster.Config{
		Self:    "http://127.0.0.1:1",
		Peers:   []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		Metrics: reg,
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv.SetCluster(cl)
	tc := startUnixServer(t, srv)

	if st, code, _ := tc.postTenant(t, `{"protocol": "msi"}`, "acme", true); code != http.StatusOK {
		t.Fatalf("verify: http %d err %q", code, st.Error)
	}
	if _, code, _ := tc.postTenant(t, `{"protocol": "msi"}`, "acme", true); code != http.StatusTooManyRequests {
		t.Fatalf("second verify past the burst: http %d, want 429", code)
	}
	body := `{"workload":{"kind":"uniform","seed":1,"caches":2,"blocks":8,"ops":1000},"protocols":["msi"]}`
	if st, code, _ := tc.postSimulate(t, body, true); code != http.StatusOK {
		t.Fatalf("simulate: http %d err %q", code, st.Error)
	}

	snap := reg.Snapshot()
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := "`" + name + "`"
		if family, _, dotted := strings.Cut(name, "."); dotted {
			want = "`" + family + ".<"
		}
		if !strings.Contains(string(doc), want) {
			t.Errorf("metric %s is registered but docs/observability.md does not list %s", name, want)
		}
	}
}
