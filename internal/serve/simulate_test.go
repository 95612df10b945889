package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/replay"
)

// postSimulate POSTs a simulate request and decodes the JobStatus, also
// returning the disposition header.
func (tc *testClient) postSimulate(t *testing.T, body string, wait bool) (JobStatus, int, string) {
	t.Helper()
	url := "http://ccserved/v1/simulate"
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
	return st, resp.StatusCode, resp.Header.Get("X-CC-Disposition")
}

// TestSimulateE2E is the simulate acceptance path: a workload-spec
// submission runs the replay fan-out to completion, and the second
// identical submission is a cache hit answered with byte-identical report
// bytes and no second engine run.
func TestSimulateE2E(t *testing.T) {
	srv := newServer(t, Config{Workers: 2})
	tc := startUnixServer(t, srv)

	body := `{"workload":{"kind":"migratory","seed":1993,"caches":4,"blocks":16,"ops":20000},"capacity":8}`
	st, code, disp := tc.postSimulate(t, body, true)
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("first submit: http %d, state %q, err %q", code, st.State, st.Error)
	}
	if disp != DispositionQueued {
		t.Errorf("first disposition = %q, want %q", disp, DispositionQueued)
	}
	rep, err := replay.DecodeReport(st.Report)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != replay.ReportSchema || rep.CacheKey != st.CacheKey {
		t.Fatalf("report schema=%d cache_key=%q, want schema=%d cache_key=%q",
			rep.Schema, rep.CacheKey, replay.ReportSchema, st.CacheKey)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("got %d result rows, want the 4 default protocols", len(rep.Results))
	}
	if rep.Ops != 20000 {
		t.Errorf("report ops = %d, want 20000", rep.Ops)
	}
	for _, r := range rep.Results {
		if r.Violations != 0 || r.StaleReads != 0 || r.Truncated {
			t.Errorf("%s: violations=%d stale=%d truncated=%v, want a clean complete run",
				r.Protocol, r.Violations, r.StaleReads, r.Truncated)
		}
	}

	st2, code2, disp2 := tc.postSimulate(t, body, true)
	if code2 != http.StatusOK || st2.State != StateDone {
		t.Fatalf("second submit: http %d, state %q, err %q", code2, st2.State, st2.Error)
	}
	if disp2 != DispositionHit || !st2.Cached {
		t.Errorf("second disposition = %q cached=%v, want %q cached=true", disp2, st2.Cached, DispositionHit)
	}
	if !bytes.Equal(st.Report, st2.Report) {
		t.Error("cached report bytes differ from the fresh run")
	}

	stats := tc.stats(t)
	if stats.SimulateRequests != 2 || stats.SimulateRuns != 1 || stats.SimulateCacheHits != 1 {
		t.Errorf("simulate counters = requests %d, runs %d, hits %d; want 2, 1, 1",
			stats.SimulateRequests, stats.SimulateRuns, stats.SimulateCacheHits)
	}
}

// TestSimulateInlineTrace ships trace bytes instead of a spec: the report
// must match a local replay of the same trace, and the digest-based key
// means an identical inline submission also hits the cache.
func TestSimulateInlineTrace(t *testing.T) {
	srv := newServer(t, Config{Workers: 2})
	tc := startUnixServer(t, srv)

	var trace bytes.Buffer
	spec := replay.WorkloadSpec{Kind: replay.KindProducerConsumer, Seed: 7, Caches: 4, Blocks: 8, Ops: 5000}
	if _, err := replay.Materialize(&trace, spec); err != nil {
		t.Fatal(err)
	}
	req := SimulateRequest{Trace: trace.String(), Protocols: []string{"mesi", "dragon"}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	st, code, _ := tc.postSimulate(t, string(body), true)
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit: http %d, state %q, err %q", code, st.State, st.Error)
	}
	rep, err := replay.DecodeReport(st.Report)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 || rep.Results[0].Protocol != "MESI" || rep.Results[1].Protocol != "Dragon" {
		t.Fatalf("rows = %+v, want MESI then Dragon (request order)", rep.Results)
	}
	if rep.Results[0].Ops != 5000 {
		t.Errorf("ops = %d, want 5000", rep.Results[0].Ops)
	}

	st2, _, disp := tc.postSimulate(t, string(body), true)
	if disp != DispositionHit || !bytes.Equal(st.Report, st2.Report) {
		t.Errorf("identical inline trace: disposition %q, bytes equal %v; want a byte-identical hit",
			disp, bytes.Equal(st.Report, st2.Report))
	}
}

// TestSimulateMaxOpsTruncationCaches pins the budget semantics: a run
// truncated by the request's own max_ops is complete by definition (the
// knob is part of the cache key), so the report flags the rows truncated
// and still enters the cache.
func TestSimulateMaxOpsTruncationCaches(t *testing.T) {
	srv := newServer(t, Config{Workers: 1})
	tc := startUnixServer(t, srv)

	body := `{"workload":{"kind":"uniform","seed":1,"caches":2,"blocks":8,"ops":10000},"protocols":["msi"],"max_ops":1000}`
	st, code, _ := tc.postSimulate(t, body, true)
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit: http %d, state %q, err %q", code, st.State, st.Error)
	}
	rep, err := replay.DecodeReport(st.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Results[0].Truncated || rep.Results[0].StopReason != "" || rep.Results[0].Ops != 1000 {
		t.Fatalf("row = %+v, want truncated at 1000 ops with no stop reason", rep.Results[0])
	}
	_, _, disp := tc.postSimulate(t, body, true)
	if disp != DispositionHit {
		t.Errorf("repeat disposition = %q, want %q (max_ops results are cacheable)", disp, DispositionHit)
	}
}

// TestSimulateValidation rejects malformed requests with 400, not 429/500.
func TestSimulateValidation(t *testing.T) {
	srv := newServer(t, Config{Workers: 1})
	tc := startUnixServer(t, srv)

	bad := []string{
		`{}`, // neither trace nor workload
		`{"trace":"# cctrace v1\n# caches: 2\n0 r 0\n","workload":{"kind":"uniform","seed":1,"caches":2,"blocks":2,"ops":10}}`,
		`{"workload":{"kind":"zipf","seed":1,"caches":2,"blocks":2,"ops":10}}`,
		`{"workload":{"kind":"uniform","seed":1,"caches":2,"blocks":2,"ops":10},"protocols":["mesi2000"]}`,
		`{"workload":{"kind":"uniform","seed":1,"caches":2,"blocks":2,"ops":10},"capacity":-1}`,
		`{"workload":{"kind":"uniform","seed":1,"caches":2,"blocks":2,"ops":6000000}}`, // over the ops cap
	}
	for i, body := range bad {
		resp, err := tc.c.Post("http://ccserved/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %d: http %d, want 400", i, resp.StatusCode)
		}
	}

	// A malformed trace fails the job at run time with a line-numbered
	// parse error, not a hung or panicking worker.
	st, code, _ := tc.postSimulate(t, `{"trace":"not a cctrace\n","protocols":["msi"]}`, true)
	if code != http.StatusOK || st.State != StateFailed || !strings.Contains(st.Error, "line 1") {
		t.Errorf("malformed trace: http %d, state %q, err %q; want a failed job naming line 1", code, st.State, st.Error)
	}
}

// TestSimulateInlineTraceCachesCapped rejects an inline trace whose header
// declares more caches than maxSimulateCaches before any job runs: every
// protocol lane would otherwise allocate MaxBlocks × caches of machine
// state up front. The check stops at resolve, so the test never builds
// such a machine.
func TestSimulateInlineTraceCachesCapped(t *testing.T) {
	for _, caches := range []int{maxSimulateCaches + 1, 1000000} {
		req := SimulateRequest{Trace: fmt.Sprintf("# cctrace v1\n# caches: %d\n0 r 0\n", caches)}
		if _, _, _, err := req.resolve(); !errors.Is(err, ErrSimulateRequest) || !strings.Contains(err.Error(), "caches") {
			t.Errorf("caches %d: resolve err = %v, want an ErrSimulateRequest naming caches", caches, err)
		}
	}
	ok := SimulateRequest{Trace: fmt.Sprintf("# cctrace v1\n# caches: %d\n0 r 0\n", maxSimulateCaches)}
	if _, _, _, err := ok.resolve(); err != nil {
		t.Errorf("caches at the cap: resolve err = %v, want nil", err)
	}
}
