package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

// getGraph fetches a job's graph and returns body, status and content type.
func (tc *testClient) getGraph(t *testing.T, id, format string) ([]byte, int, string) {
	t.Helper()
	url := "http://ccserved/v1/jobs/" + id + "/graph"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := tc.c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode, resp.Header.Get("Content-Type")
}

// TestE2EJobGraph exercises GET /v1/jobs/{id}/graph over both engines and
// both formats, pinning determinism: repeated fetches (served from the
// per-job memo) and a cache-hit resubmission (rebuilt from scratch) must
// return byte-identical documents.
func TestE2EJobGraph(t *testing.T) {
	srv := newServer(t, Config{Workers: 2, QueueDepth: 8})
	tc := startUnixServer(t, srv)

	// Symbolic job: the global diagram of Figure 4.
	st, _ := tc.post(t, `{"protocol":"illinois"}`, true)
	if st.State != StateDone {
		t.Fatalf("job state %s", st.State)
	}
	dot, code, ctype := tc.getGraph(t, st.ID, "")
	if code != 200 {
		t.Fatalf("graph status %d: %s", code, dot)
	}
	if !strings.Contains(ctype, "graphviz") {
		t.Errorf("content type %q", ctype)
	}
	if !strings.Contains(string(dot), `digraph "Illinois"`) {
		t.Errorf("unexpected DOT:\n%s", dot)
	}
	dot2, _, _ := tc.getGraph(t, st.ID, "dot")
	if !bytes.Equal(dot, dot2) {
		t.Error("repeated DOT fetches differ")
	}

	jsDoc, code, ctype := tc.getGraph(t, st.ID, "json")
	if code != 200 || ctype != "application/json" {
		t.Fatalf("json graph status %d type %q", code, ctype)
	}
	var e graph.ExportJSON
	if err := json.Unmarshal(jsDoc, &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "global" || e.Schema != graph.GraphSchema || len(e.Nodes) != 5 {
		t.Errorf("global export = kind %s schema %d %d nodes", e.Kind, e.Schema, len(e.Nodes))
	}

	// A cache-hit resubmission is a distinct Job with no memo; its graph
	// must still render to the same bytes.
	st2, _ := tc.post(t, `{"protocol":"illinois"}`, true)
	if st2.ID == st.ID || !st2.Cached {
		t.Fatalf("resubmission: id %s cached %v", st2.ID, st2.Cached)
	}
	dot3, code, _ := tc.getGraph(t, st2.ID, "dot")
	if code != 200 {
		t.Fatalf("cache-hit graph status %d: %s", code, dot3)
	}
	if !bytes.Equal(dot, dot3) {
		t.Error("cache-hit job renders a different graph")
	}

	// Enumeration job: the concrete reachability diagram.
	st3, _ := tc.post(t, `{"protocol":"msi","engine":"enum-counting","n":3}`, true)
	if st3.State != StateDone {
		t.Fatalf("enum job state %s", st3.State)
	}
	cj, code, _ := tc.getGraph(t, st3.ID, "json")
	if code != 200 {
		t.Fatalf("enum graph status %d: %s", code, cj)
	}
	var ce graph.ExportJSON
	if err := json.Unmarshal(cj, &ce); err != nil {
		t.Fatal(err)
	}
	if ce.Kind != "concrete" || ce.N != 3 || ce.Mode != "counting" || len(ce.Nodes) == 0 {
		t.Errorf("concrete export = %+v", ce)
	}
}

// TestE2EJobGraphErrors pins the endpoint's rejection contract: 404 for
// unknown jobs and graph-less kinds, 400 for unknown formats, 409 for jobs
// that have not completed.
func TestE2EJobGraphErrors(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, QueueDepth: 8})
	tc := startUnixServer(t, srv)

	if _, code, _ := tc.getGraph(t, "nope", ""); code != 404 {
		t.Errorf("unknown job: %d, want 404", code)
	}

	st, _ := tc.post(t, `{"protocol":"msi"}`, true)
	if _, code, _ := tc.getGraph(t, st.ID, "svg"); code != 400 {
		t.Errorf("bad format: %d, want 400", code)
	}

	// Simulate jobs have no transition graph.
	sim, code, _ := tc.postSimulate(t, `{"workload":{"kind":"uniform","seed":1,"caches":2,"blocks":8,"ops":5000},"protocols":["msi"]}`, true)
	if code != 200 || sim.State != StateDone {
		t.Fatalf("simulate: %d %s", code, sim.State)
	}
	if _, code, _ := tc.getGraph(t, sim.ID, ""); code != 404 {
		t.Errorf("simulate job graph: %d, want 404", code)
	}

	// A job that has not finished is a 409.
	bsrv, gate := blockingServer(t, Config{Workers: 1, QueueDepth: 8})
	btc := startUnixServer(t, bsrv)
	defer close(gate)
	pend, _ := btc.post(t, `{"protocol":"illinois"}`, false)
	if _, code, _ := btc.getGraph(t, pend.ID, ""); code != 409 {
		t.Errorf("pending job graph: %d, want 409", code)
	}
}

// goldenGraphDigest returns the SHA-256 the graph package's golden file
// records for one concrete diagram rendering.
func goldenGraphDigest(t *testing.T, protocol, mode string, n int, format string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "graph", "testdata", "concrete_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("%s %s n=%d ", protocol, mode, n)
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		for _, field := range strings.Fields(line) {
			if digest, ok := strings.CutPrefix(field, format+"="); ok {
				return digest
			}
		}
	}
	t.Fatalf("no %s digest for %q in the concrete golden file", format, prefix)
	return ""
}

// canceledAfter is a context whose Err reports a cancellation from call
// limit+1 on; Done never fires.
type canceledAfter struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *canceledAfter) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestJobGraphCanceled: the graph of an enum job is an enumeration run
// under the request's context, so an already-cancelled context stops it
// with ErrCanceled and memoizes nothing, and a later fetch under a live
// context still renders the golden bytes. A client that leaves once the
// enumeration is done stops the diagram's build and rendering with the
// same error.
func TestJobGraphCanceled(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, QueueDepth: 8})
	srv.Start()
	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	_, canonical, err := ResolveSpec("illinois", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ engine, mode, format string }{
		{EngineEnumStrict, enum.ModeStrict, GraphFormatDOT},
		{EngineEnumCounting, enum.ModeCounting, GraphFormatJSON},
	} {
		opts := JobOptions{Engine: tc.engine, N: 3, Workers: 2}
		if err := opts.normalize(); err != nil {
			t.Fatal(err)
		}
		j, _, err := srv.SubmitEx(p, canonical, opts, SubmitOptions{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := srv.JobGraph(ctx, j.ID, tc.format); !errors.Is(err, runctl.ErrCanceled) {
			t.Fatalf("%s: graph under a cancelled context: err %v, want ErrCanceled", tc.engine, err)
		}
		j.mu.Lock()
		memo := len(j.graphs)
		j.mu.Unlock()
		if memo != 0 {
			t.Errorf("%s: a cancelled build memoized %d rendering(s)", tc.engine, memo)
		}
		enumOnly := &canceledAfter{Context: context.Background(), limit: math.MaxInt64}
		if _, err := core.Run(enumOnly, j.proto, j.opts.job(nil)); err != nil {
			t.Fatal(err)
		}
		// Past the enumeration, a diagram this small checks its context
		// four times: the node replay, the two step replays, the rendering.
		for extra := range 4 {
			left := &canceledAfter{Context: context.Background(), limit: enumOnly.calls.Load() + int64(extra)}
			if _, err := buildJobGraph(left, j, tc.format); !errors.Is(err, runctl.ErrCanceled) {
				t.Errorf("%s: client left after %d diagram check(s): err %v, want ErrCanceled", tc.engine, extra, err)
			}
		}
		data, _, err := srv.JobGraph(context.Background(), j.ID, tc.format)
		if err != nil {
			t.Fatalf("%s: %v", tc.engine, err)
		}
		if got, want := fmt.Sprintf("%x", sha256.Sum256(data)), goldenGraphDigest(t, "Illinois", tc.mode, 3, tc.format); got != want {
			t.Errorf("%s: %s graph digest %s, golden %s", tc.engine, tc.format, got, want)
		}
	}
}
