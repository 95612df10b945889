package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// batchStream POSTs a batch request and decodes the NDJSON stream into its
// result lines and trailing summary.
func (tc *testClient) batchStream(t *testing.T, body, tenant string) ([]BatchLine, BatchSummary, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://ccserved/v1/verify/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, BatchSummary{}, resp.StatusCode
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch content type = %q, want application/x-ndjson", ct)
	}
	lines, summary := decodeBatchNDJSON(t, bufio.NewScanner(resp.Body))
	return lines, summary, resp.StatusCode
}

// decodeBatchNDJSON splits an NDJSON batch stream into result lines and the
// summary, failing on anything malformed.
func decodeBatchNDJSON(t *testing.T, sc *bufio.Scanner) ([]BatchLine, BatchSummary) {
	t.Helper()
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []BatchLine
	var summary BatchSummary
	sawSummary := false
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if sawSummary {
			t.Fatalf("line after the summary: %s", raw)
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
			sawSummary = true
			continue
		}
		var line BatchLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading batch stream: %v", err)
	}
	if !sawSummary {
		t.Fatal("batch stream ended without a summary line")
	}
	return lines, summary
}

// fullSweepBody is the paper's fault-injection experiment as one request:
// every library protocol plus its whole mutation catalog under enum n=3.
const fullSweepBody = `{"sweep": {"mutants": true, "engine": "enum-strict", "n": 3}, "timeout_ms": 30000}`

// TestE2EBatchSweepSingleNode: a server-side sweep expands protocols ×
// mutants, streams one line per job plus a summary, finishes every job, and
// a repeated batch is answered entirely from the cache.
func TestE2EBatchSweepSingleNode(t *testing.T) {
	srv := newServer(t, Config{Workers: 4})
	tc := startUnixServer(t, srv)

	body := `{"sweep": {"protocols": ["illinois", "msi"], "mutants": true, "engine": "enum-strict", "n": 3}}`
	lines, summary, code := tc.batchStream(t, body, "")
	if code != http.StatusOK {
		t.Fatalf("batch: http %d", code)
	}
	// illinois carries 4 mutants, msi 3: 2 base + 7 mutant jobs.
	const wantJobs = 9
	if summary.Total != wantJobs || summary.Done != wantJobs || summary.Failed != 0 {
		t.Fatalf("summary = %+v, want %d done, 0 failed", summary, wantJobs)
	}
	seen := map[int]bool{}
	for _, l := range lines {
		if l.State != StateDone || len(l.Report) == 0 {
			t.Errorf("job %d (%s): state %s error %q", l.Index, l.Protocol, l.State, l.Error)
		}
		if l.Disposition != BatchComputed && l.Disposition != BatchCached {
			t.Errorf("job %d: disposition %q on a single node", l.Index, l.Disposition)
		}
		if seen[l.Index] {
			t.Errorf("job %d reported twice", l.Index)
		}
		seen[l.Index] = true
	}
	if len(seen) != wantJobs {
		t.Fatalf("stream carried %d result lines, want %d", len(seen), wantJobs)
	}

	// Identical repeat: nothing recomputes.
	_, again, _ := tc.batchStream(t, body, "")
	if again.Failed != 0 || again.Dispositions[BatchCached] != wantJobs {
		t.Fatalf("repeat summary = %+v, want all %d cached", again, wantJobs)
	}
	s := tc.stats(t)
	if s.BatchRequests != 2 || s.BatchJobs != 2*wantJobs {
		t.Errorf("batch_requests=%d batch_jobs=%d, want 2 and %d", s.BatchRequests, s.BatchJobs, 2*wantJobs)
	}
}

// TestE2EBatchExplicitJobsAndBadRequests pins the explicit-jobs path and
// the 400 surface: one bad entry rejects the whole batch before any work.
func TestE2EBatchExplicitJobs(t *testing.T) {
	srv := newServer(t, Config{Workers: 2})
	tc := startUnixServer(t, srv)

	body := `{"jobs": [{"protocol": "illinois"}, {"protocol": "dragon", "engine": "enum-strict", "n": 3}]}`
	lines, summary, code := tc.batchStream(t, body, "")
	if code != http.StatusOK || summary.Total != 2 || summary.Failed != 0 {
		t.Fatalf("batch: http %d summary %+v", code, summary)
	}
	for _, l := range lines {
		if l.CacheKey == "" || l.State != StateDone {
			t.Errorf("job %d: key %q state %s", l.Index, l.CacheKey, l.State)
		}
	}

	for _, bad := range []string{
		`{}`, // expands to no jobs
		`{"jobs": [{"protocol": "illinois"}, {"protocol": "no-such"}]}`,
		`{"jobs": [{"protocol": "illinois", "engine": "enum-strict", "n": 99}]}`,
		`{"sweep": {"protocols": ["bogus"]}}`,
	} {
		if _, _, code := tc.batchStream(t, bad, ""); code != http.StatusBadRequest {
			t.Errorf("body %s: http %d, want 400", bad, code)
		}
	}
	if s := tc.stats(t); s.EngineRuns != 2 {
		t.Errorf("engine_runs = %d; rejected batches must not start work", s.EngineRuns)
	}
}

// TestE2EBatchRateLimitedUpfront: the tenant bucket is charged one token
// per expanded job before the stream starts, so a batch is not a rate-limit
// loophole — and the refusal carries Retry-After.
func TestE2EBatchRateLimitedUpfront(t *testing.T) {
	srv := newServer(t, Config{Workers: 2, TenantRate: 0.01, TenantBurst: 2})
	tc := startUnixServer(t, srv)

	body := `{"jobs": [{"protocol": "illinois"}, {"protocol": "dragon"}]}`
	if _, summary, code := tc.batchStream(t, body, "bulk"); code != http.StatusOK || summary.Failed != 0 {
		t.Fatalf("first batch within burst: http %d summary %+v", code, summary)
	}
	req, err := http.NewRequest(http.MethodPost, "http://ccserved/v1/verify/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "bulk")
	resp, err := tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second batch: http %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch rate refusal missing Retry-After")
	}
	if s := tc.stats(t); s.EngineRuns != 2 {
		t.Errorf("engine_runs = %d; the refused batch must not have started", s.EngineRuns)
	}
}

// TestE2EBatchShedUnderQueuePressure: batch-class jobs are shed (and
// retried) once the queue passes the shed watermark, so interactive work
// keeps headroom; the batch still completes once pressure clears.
func TestE2EBatchShedUnderQueuePressure(t *testing.T) {
	// Watermark 0.5 * depth 4 = shed batch work at 2 queued jobs.
	srv, gate := blockingServer(t, Config{
		Workers: 1, QueueDepth: 4, BatchShedFraction: 0.5, BatchRetries: 8,
	})
	tc := startUnixServer(t, srv)

	// Fill to the watermark: one running, two queued.
	first, code, _ := tc.postTenant(t, enumReq("illinois", 2), "fg", false)
	if code != http.StatusAccepted {
		t.Fatalf("first: http %d", code)
	}
	waitForState(t, tc, first.ID, StateRunning)
	for n := 3; n <= 4; n++ {
		if _, code, _ := tc.postTenant(t, enumReq("illinois", n), "fg", false); code != http.StatusAccepted {
			t.Fatalf("filler n=%d: http %d", n, code)
		}
	}

	// The batch hits the shed watermark and backs off; open the gate
	// shortly after so its retries find a drained queue and finish.
	go func() {
		time.Sleep(150 * time.Millisecond)
		close(gate)
	}()
	_, summary, code := tc.batchStream(t, `{"jobs": [{"protocol": "dragon"}]}`, "bulk")
	if code != http.StatusOK || summary.Failed != 0 || summary.Done != 1 {
		t.Fatalf("batch under pressure: http %d summary %+v, want it to finish after backoff", code, summary)
	}
	s := tc.stats(t)
	if s.ShedBatch == 0 {
		t.Error("shed_batch = 0; the batch was never shed despite queue pressure")
	}
	if summary.Dispositions[BatchRetried] != 1 {
		t.Errorf("dispositions = %v, want the shed job reported retried", summary.Dispositions)
	}
}

// TestHedgeDeadline pins the batch straggler deadline: the fixed override
// wins, a window under 8 samples answers the 2s default, and otherwise the
// deadline is 3×p90 clamped to [100ms, 30s], where p90 is the cluster
// window's sample at rank int(0.9·n)−1.
func TestHedgeDeadline(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name    string
		fixed   time.Duration
		samples []time.Duration
		want    time.Duration
	}{
		{"fixed override", 250 * ms, []time.Duration{ms, ms, ms, ms, ms, ms, ms, ms}, 250 * ms},
		{"no samples", 0, nil, 2 * time.Second},
		{"seven samples", 0, []time.Duration{ms, ms, ms, ms, ms, ms, ms}, 2 * time.Second},
		{"fast forwards clamp up", 0, []time.Duration{ms, ms, ms, ms, ms, ms, ms, ms}, 100 * ms},
		{"slow forwards clamp down", 0, []time.Duration{time.Minute, time.Minute, time.Minute, time.Minute,
			time.Minute, time.Minute, time.Minute, time.Minute}, 30 * time.Second},
		// 10..100ms: rank int(9)−1 = 8 holds 90ms.
		{"3x p90", 0, []time.Duration{10 * ms, 20 * ms, 30 * ms, 40 * ms, 50 * ms,
			60 * ms, 70 * ms, 80 * ms, 90 * ms, 100 * ms}, 270 * ms},
	} {
		var w cluster.LatencyWindow
		for _, d := range tc.samples {
			w.Observe(d)
		}
		if got := hedgeDeadline(tc.fixed, &w); got != tc.want {
			t.Errorf("%s: deadline %v, want %v", tc.name, got, tc.want)
		}
	}
}
