package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestLoadProtocolByName(t *testing.T) {
	p, err := loadProtocol("illinois", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Illinois" {
		t.Errorf("name = %s", p.Name)
	}
}

func TestLoadProtocolFromSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.ccpsl")
	spec := `protocol Tiny
states {
  I initial
  V valid readable
}
rule miss { from I on R
            next V
            data memory }
rule hit  { from V on R
            next V
            data keep }
`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := loadProtocol("", path, "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Tiny" {
		t.Errorf("name = %s", p.Name)
	}
}

func TestLoadProtocolArgumentErrors(t *testing.T) {
	if _, err := loadProtocol("", "", ""); err == nil {
		t.Error("no source must error")
	}
	if _, err := loadProtocol("illinois", "x.ccpsl", ""); err == nil {
		t.Error("both sources must error")
	}
	if _, err := loadProtocol("nonexistent", "", ""); err == nil {
		t.Error("unknown protocol must error")
	}
	if _, err := loadProtocol("", "/does/not/exist.ccpsl", ""); err == nil {
		t.Error("missing spec file must error")
	}
}

// TestCompileOutLoadRoundTrip pins the .ccfsm conversion path: -compile-out
// writes the binary form without verifying, -load verifies from it with the
// same verdict as the built-in source, and exactly one protocol source is
// accepted.
func TestCompileOutLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "illinois.ccfsm")
	code, err := run(context.Background(), "illinois", "", cliOpts{compileOut: path})
	if err != nil || code != 0 {
		t.Fatalf("compile-out: code %d err %v", code, err)
	}
	p, err := loadProtocol("", "", path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Illinois" {
		t.Errorf("loaded name = %s", p.Name)
	}
	code, err = run(context.Background(), "", "", cliOpts{loadFile: path})
	if err != nil || code != 0 {
		t.Fatalf("verify from .ccfsm: code %d err %v", code, err)
	}
	if _, err := loadProtocol("illinois", "", path); err == nil {
		t.Error("-protocol with -load must error")
	}
	if _, err := loadProtocol("", "", filepath.Join(t.TempDir(), "missing.ccfsm")); err == nil {
		t.Error("missing .ccfsm must error")
	}
}

func TestRunVerifyWritesDOT(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "g.dot")
	localDot := filepath.Join(dir, "l.dot")
	code, err := run(context.Background(), "illinois", "", cliOpts{
		strict: true, dotFile: dot, localDot: localDot, crossCheck: "2,3",
		jsonFile: filepath.Join(dir, "r.json"),
	})
	if err != nil || code != 0 {
		t.Fatalf("code %d err %v", code, err)
	}
	for _, f := range []string{dot, localDot} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("missing output %s: %v", f, err)
		}
		if !strings.Contains(string(data), "digraph") {
			t.Errorf("%s is not a DOT file", f)
		}
	}
}

func TestRunRejectsBadCrossCheck(t *testing.T) {
	if _, err := run(context.Background(), "illinois", "", cliOpts{crossCheck: "2,zero"}); err == nil {
		t.Error("malformed crosscheck list must error")
	}
}

// TestRunTimeoutCheckpointResume exercises the resilience path: an expired
// deadline stops the run with exit code 3 and a checkpoint, and resuming
// completes the verification cleanly.
func TestRunTimeoutCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	code, err := run(ctx, "illinois", "", cliOpts{checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if code != 3 {
		t.Fatalf("interrupted run exit code %d, want 3", code)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	code, err = run(context.Background(), "illinois", "", cliOpts{resume: ckpt})
	if err != nil || code != 0 {
		t.Fatalf("resumed run: code %d err %v", code, err)
	}
}

func TestRunCompare(t *testing.T) {
	if err := runCompare("synapse,msi"); err != nil {
		t.Fatal(err)
	}
	if err := runCompare("onlyone"); err == nil {
		t.Error("compare needs two names")
	}
	if err := runCompare("synapse,doesnotexist"); err == nil {
		t.Error("unknown protocol must error")
	}
}

func TestRunWritesJSONReport(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	code, err := run(context.Background(), "msi", "", cliOpts{jsonFile: jsonPath})
	if err != nil || code != 0 {
		t.Fatalf("code %d err %v", code, err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"protocol": "MSI"`, `"permissible": true`, `"essential"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
}

// TestRunEnumEngine exercises the -run enum-strict / enum-counting paths.
func TestRunEnumEngine(t *testing.T) {
	for _, engine := range []string{"enum-strict", "enum-counting"} {
		code, err := run(context.Background(), "illinois", "", cliOpts{engine: engine, n: 3})
		if err != nil || code != 0 {
			t.Errorf("%s: code %d err %v", engine, code, err)
		}
	}
	if _, err := run(context.Background(), "illinois", "", cliOpts{engine: "warp"}); err == nil {
		t.Error("unknown -run engine must error")
	}
	if _, err := run(context.Background(), "illinois", "", cliOpts{engine: "enum-strict", n: 3, crossCheck: "2"}); err == nil {
		t.Error("enum engines must reject symbolic-pipeline flags")
	}
}

// TestMetricsJSONGolden pins the -metrics-json snapshot for the symbolic
// verification of Illinois: after zeroing the wall-clock-dependent parts
// (histogram sums and bucket spreads), every counter, gauge and observation
// count is deterministic, so the whole document is golden-comparable.
// Regenerate with UPDATE_GOLDEN=1 go test ./cmd/ccverify/.
func TestMetricsJSONGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	code, err := run(context.Background(), "illinois", "", cliOpts{engine: "symbolic", metricsJSON: path})
	if err != nil || code != 0 {
		t.Fatalf("code %d err %v", code, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["expand_levels_total"] == 0 {
		t.Error("expand_levels_total = 0; want one increment per expansion level")
	}
	if snap.Counters["contained_discarded_total"] == 0 {
		t.Error("contained_discarded_total = 0; want the ⊆_F-pruned discards")
	}
	snap.ZeroTimings()
	got, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics_illinois_symbolic.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics snapshot drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunCrossCheckMode runs the explicit-state cross-check beside the
// symbolic verdict, and maps an expired deadline to exit code 3.
func TestRunCrossCheckMode(t *testing.T) {
	if code, err := run(context.Background(), "msi", "", cliOpts{crossCheck: "2,3"}); err != nil || code != 0 {
		t.Fatalf("code %d err %v", code, err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if code, err := run(ctx, "msi", "", cliOpts{crossCheck: "2"}); err != nil || code != 3 {
		t.Errorf("cross-check under expired deadline: code %d err %v, want 3 nil", code, err)
	}
}
