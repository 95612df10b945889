package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ccpsl"
	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/serve"
)

// startRun launches run() in a goroutine with a ready channel and returns
// the bound address plus a channel yielding (code, err) on exit.
func startRun(t *testing.T, ctx context.Context, o cliOpts) (string, chan struct{}, *runResult) {
	t.Helper()
	ready := make(chan string, 1)
	o.ready = ready
	res := &runResult{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		res.code, res.err = run(ctx, o)
	}()
	select {
	case addr := <-ready:
		return addr, done, res
	case <-done:
		t.Fatalf("run exited before listening: code %d err %v", res.code, res.err)
		return "", nil, nil
	}
}

type runResult struct {
	code int
	err  error
}

// TestRunDrainsAndExitsStopped pins the signal contract end to end:
// cancellation (what runctl.WithSignals does on SIGTERM) drains in-flight
// work — a blocked ?wait=1 client still gets its completed report — and the
// process exit code is the shared stopped code, 3.
func TestRunDrainsAndExitsStopped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done, res := startRun(t, ctx, cliOpts{
		listen:       "127.0.0.1:0",
		cfg:          serve.Config{Workers: 2, QueueDepth: 8},
		drainTimeout: 10 * time.Second,
	})
	base := "http://" + addr

	// Warm request proves the service is answering.
	resp, err := http.Post(base+"/v1/verify?wait=1", "application/json",
		strings.NewReader(`{"protocol": "illinois"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != serve.StateDone {
		t.Fatalf("warm request: http %d state %s err %q", resp.StatusCode, st.State, st.Error)
	}

	// A second client blocks on a fresh (uncached) verification while the
	// stop signal lands; the drain must let it finish.
	inflight := make(chan *serve.JobStatus, 1)
	go func() {
		resp, err := http.Post(base+"/v1/verify?wait=1", "application/json",
			strings.NewReader(`{"protocol": "dragon", "engine": "enum-strict", "n": 4}`))
		if err != nil {
			inflight <- nil
			return
		}
		defer resp.Body.Close()
		var st serve.JobStatus
		if json.NewDecoder(resp.Body).Decode(&st) != nil {
			inflight <- nil
			return
		}
		inflight <- &st
	}()
	// Give the in-flight request a moment to be admitted before stopping.
	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
	if res.err != nil {
		t.Fatalf("run: %v", res.err)
	}
	if res.code != runctl.ExitStopped {
		t.Fatalf("exit code %d, want %d (stopped)", res.code, runctl.ExitStopped)
	}
	if st := <-inflight; st != nil && st.State != serve.StateDone && st.State != serve.StateCanceled {
		t.Errorf("in-flight job ended as %s", st.State)
	}
}

// TestRunUnixSocket: the daemon listens on a unix socket, answers health
// checks, and removes the socket file on the way out.
func TestRunUnixSocket(t *testing.T) {
	dir, err := os.MkdirTemp("", "ccsrvd")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "d.sock")
	// A stale socket file from a prior unclean exit must not block startup.
	staleLn, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	staleLn.(*net.UnixListener).SetUnlinkOnClose(false)
	staleLn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, done, res := startRun(t, ctx, cliOpts{
		unixSocket:   sock,
		cfg:          serve.Config{Workers: 1, QueueDepth: 4},
		drainTimeout: 5 * time.Second,
	})

	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
	}}
	resp, err := client.Get("http://ccserved/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: http %d", resp.StatusCode)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit")
	}
	if res.code != runctl.ExitStopped {
		t.Errorf("exit code %d, want %d", res.code, runctl.ExitStopped)
	}
	if _, err := os.Lstat(sock); !os.IsNotExist(err) {
		t.Errorf("socket file not removed on exit (err %v)", err)
	}
}

// TestRunRejectsBadConfig: an unusable cache directory fails startup.
func TestRunRejectsBadConfig(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, err := run(context.Background(), cliOpts{
		listen: "127.0.0.1:0",
		cfg:    serve.Config{CacheDir: file},
	})
	if err == nil {
		t.Fatal("run with a plain-file cache dir: want error")
	}
	if code == exitBind {
		t.Errorf("config error reported as bind failure (code %d); the two must stay distinct", code)
	}
}

// TestRunBindFailureExitsDistinct pins satellite #1 of the cluster issue:
// a bind failure — port taken, foreign file at the socket path — exits
// with the distinct code 2 and a message naming the address, so a smoke
// script or supervisor can tell it from a bad flag (code 1).
func TestRunBindFailureExitsDistinct(t *testing.T) {
	t.Run("port-in-use", func(t *testing.T) {
		squatter, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer squatter.Close()
		code, err := run(context.Background(), cliOpts{listen: squatter.Addr().String()})
		if err == nil {
			t.Fatal("binding an occupied port: want error")
		}
		if code != exitBind {
			t.Errorf("exit code %d, want %d; err: %v", code, exitBind, err)
		}
		if !strings.Contains(err.Error(), squatter.Addr().String()) {
			t.Errorf("bind error does not name the address: %v", err)
		}
	})
	t.Run("foreign-file-at-socket-path", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "not-a.sock")
		if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
			t.Fatal(err)
		}
		code, err := run(context.Background(), cliOpts{unixSocket: path})
		if err == nil {
			t.Fatal("binding over a foreign file: want error")
		}
		if code != exitBind {
			t.Errorf("exit code %d, want %d; err: %v", code, exitBind, err)
		}
		// The refusal must leave the file alone.
		if data, rerr := os.ReadFile(path); rerr != nil || string(data) != "precious" {
			t.Errorf("foreign file was touched: data=%q err=%v", data, rerr)
		}
	})
}

// TestRunClusterPeerFill wires two full daemons together with the -peers
// options: a key verified on A is served by B as a peer cache fill.
func TestRunClusterPeerFill(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrA, doneA, _ := startRun(t, ctx, cliOpts{
		listen:       "127.0.0.1:0",
		cfg:          serve.Config{Workers: 2, QueueDepth: 8},
		drainTimeout: 5 * time.Second,
	})
	addrB, doneB, _ := startRun(t, ctx, cliOpts{
		listen:       "127.0.0.1:0",
		cfg:          serve.Config{Workers: 2, QueueDepth: 8},
		drainTimeout: 5 * time.Second,
		peers:        []string{addrA},
	})

	verify := func(addr string) (serve.JobStatus, string) {
		t.Helper()
		resp, err := http.Post("http://"+addr+"/v1/verify?wait=1", "application/json",
			strings.NewReader(`{"protocol": "illinois"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st serve.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st, resp.Header.Get("X-CC-Disposition")
	}

	first, disp := verify(addrA)
	if first.State != serve.StateDone || disp != serve.DispositionQueued {
		t.Fatalf("verify on A: state=%s disposition=%s", first.State, disp)
	}
	filled, disp := verify(addrB)
	if filled.State != serve.StateDone || disp != serve.DispositionPeer {
		t.Fatalf("verify on B: state=%s disposition=%s, want done/%s", filled.State, disp, serve.DispositionPeer)
	}
	if string(filled.Report) != string(first.Report) {
		t.Error("peer-filled report differs from origin's bytes")
	}

	cancel()
	for _, done := range []chan struct{}{doneA, doneB} {
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatal("a daemon did not exit after cancellation")
		}
	}
}

// specDirRuns numbers TestRunSpecDir's protocols: the library is global, so
// a repeated run (-count) must not collide with the names of the last one.
var specDirRuns atomic.Int32

// TestRunSpecDir starts the daemon with -spec-dir over one ccpsl file: the
// protocol is listed by GET /v1/protocols, and verifying it by name gives
// the same cache key as submitting the file's text, so both routes land on
// one identity.
func TestRunSpecDir(t *testing.T) {
	p, err := protocols.ByName("synapse")
	if err != nil {
		t.Fatal(err)
	}
	p.Name = fmt.Sprintf("spec-dir-%d", specDirRuns.Add(1))
	text := ccpsl.Format(p)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, p.Name+".ccpsl"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done, _ := startRun(t, ctx, cliOpts{
		listen:       "127.0.0.1:0",
		specDir:      dir,
		cfg:          serve.Config{Workers: 1, QueueDepth: 4},
		drainTimeout: 5 * time.Second,
	})
	base := "http://" + addr

	resp, err := http.Get(base + "/v1/protocols")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Protocols []string }
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(list.Protocols, p.Name) {
		t.Fatalf("GET /v1/protocols = %v, missing %s", list.Protocols, p.Name)
	}

	verify := func(body any) serve.JobStatus {
		t.Helper()
		req, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/verify?wait=1", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st serve.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.State != serve.StateDone {
			t.Fatalf("verify %s: state %s err %q", req, st.State, st.Error)
		}
		return st
	}
	byName := verify(map[string]string{"protocol": p.Name})
	bySpec := verify(map[string]string{"spec": text})
	if byName.CacheKey != bySpec.CacheKey {
		t.Errorf("cache_key by name %s != by spec text %s", byName.CacheKey, bySpec.CacheKey)
	}
	if !bySpec.Cached {
		t.Error("the spec-text submission was not served from the by-name entry")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after cancellation")
	}
}
