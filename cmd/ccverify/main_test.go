package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckptio"
	"repro/internal/enum"
	"repro/internal/obs"
	"repro/internal/runctl"
)

func TestLoadProtocolByName(t *testing.T) {
	p, err := loadProtocol("illinois", "")
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
	p, err := loadProtocol("", path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Tiny" {
		t.Errorf("name = %s", p.Name)
	}
}

func TestLoadProtocolArgumentErrors(t *testing.T) {
	if _, err := loadProtocol("", ""); err == nil {
		t.Error("no source must error")
	}
	if _, err := loadProtocol("illinois", "x.ccpsl"); err == nil {
		t.Error("both sources must error")
	}
	if _, err := loadProtocol("nonexistent", ""); err == nil {
		t.Error("unknown protocol must error")
	}
	if _, err := loadProtocol("", "/does/not/exist.ccpsl"); err == nil {
		t.Error("missing spec file must error")
	}
}

func TestRunVerifyWritesDOT(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "g.dot")
	localDot := filepath.Join(dir, "l.dot")
	code, err := run(context.Background(), "illinois", "", cliOpts{
		strict: true, graphOut: dot, localDot: localDot, crossCheck: "2,3",
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

// runOut runs the CLI entry point, failing the test on a usage error, and
// returns the exit code with everything the run printed to stdout.
func runOut(t *testing.T, ctx context.Context, protoName, specFile string, o cliOpts) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	stdout := os.Stdout
	os.Stdout = w
	code, runErr := run(ctx, protoName, specFile, o)
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return code, printed
}

// expired is a context whose deadline has already passed: a run under it
// stops at its first check.
func expired(t *testing.T) context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

var enumEngines = []string{"enum-strict", "enum-counting"}

func TestRunModes(t *testing.T) {
	for _, engine := range enumEngines {
		code, out := runOut(t, context.Background(), "illinois", "", cliOpts{engine: engine, n: 3})
		if code != 0 {
			t.Errorf("%s: exit %d", engine, code)
		}
		for _, want := range []string{"protocol Illinois, n=3 caches", "distinct states", "state tuples", "truncated"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output lacks %q:\n%s", engine, want, out)
			}
		}
	}
}

func TestRunStrictFlag(t *testing.T) {
	for _, engine := range enumEngines {
		if code, err := run(context.Background(), "firefly", "", cliOpts{engine: engine, n: 2, strict: true}); err != nil || code != 0 {
			t.Errorf("%s: code %d err %v", engine, code, err)
		}
	}
}

func TestRunParallelWorkers(t *testing.T) {
	for _, engine := range enumEngines {
		_, one := runOut(t, context.Background(), "illinois", "", cliOpts{engine: engine, n: 3, workers: 1})
		code, four := runOut(t, context.Background(), "illinois", "", cliOpts{engine: engine, n: 3, workers: 4})
		if code != 0 || four != one {
			t.Errorf("%s at 4 workers: exit %d, output\n%s\nwant\n%s", engine, code, four, one)
		}
	}
}

// TestRunWorkersFlag pins the run width for every engine: a negative
// width is a usage error naming -workers, and widths 0 and 2 print exactly
// what one worker prints.
func TestRunWorkersFlag(t *testing.T) {
	for _, engine := range []string{"symbolic", "enum-strict", "enum-counting"} {
		_, want := runOut(t, context.Background(), "illinois", "", cliOpts{engine: engine, n: 3, workers: 1})
		for _, workers := range []int{-1, 0, 2} {
			o := cliOpts{engine: engine, n: 3, workers: workers}
			if workers < 0 {
				if _, err := run(context.Background(), "illinois", "", o); err == nil || !strings.Contains(err.Error(), "-workers") {
					t.Errorf("%s -workers %d: err %v, want a usage error naming -workers", engine, workers, err)
				}
				continue
			}
			if code, got := runOut(t, context.Background(), "illinois", "", o); code != 0 || got != want {
				t.Errorf("%s -workers %d: exit %d, output\n%s\nwant\n%s", engine, workers, code, got, want)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name      string
		protoName string
		o         cliOpts
	}{
		{"unknown protocol", "nonexistent", cliOpts{engine: "enum-strict", n: 2}},
		{"zero caches", "illinois", cliOpts{engine: "enum-strict", n: 0}},
		{"missing resume file", "illinois", cliOpts{engine: "enum-strict", n: 3, resume: "/does/not/exist.ckpt"}},
		{"spill-dir without mem-budget", "illinois", cliOpts{engine: "enum-strict", n: 3, spillDir: dir}},
		{"spill-dir on a symbolic run", "illinois", cliOpts{engine: "symbolic", memBudget: 1 << 20, spillDir: dir}},
		{"unwritable checkpoint", "illinois", cliOpts{engine: "enum-strict", n: 3, checkpoint: "/does/not/exist/run.ckpt"}},
	} {
		if _, err := run(context.Background(), tc.protoName, "", tc.o); err == nil {
			t.Errorf("%s: want an error", tc.name)
		}
	}
}

// TestRunGraphOut exercises -graph-out on enum runs: the concrete
// transition diagram renders as DOT or JSON, two runs write byte-identical
// files in both formats, "-" writes to stdout, and an unknown format is a
// usage error.
func TestRunGraphOut(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ engine, format, want string }{
		{"enum-strict", "dot", `digraph "MSI"`},
		{"enum-counting", "json", `"kind": "concrete"`},
	} {
		path := filepath.Join(dir, "g."+tc.format)
		var renders []string
		for range 2 {
			o := cliOpts{engine: tc.engine, n: 2, graphOut: path, graphFormat: tc.format}
			if code, err := run(context.Background(), "msi", "", o); err != nil || code != 0 {
				t.Fatalf("%s: code %d err %v", tc.engine, code, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			renders = append(renders, string(data))
		}
		if !strings.Contains(renders[0], tc.want) {
			t.Errorf("%s %s render lacks %q:\n%s", tc.engine, tc.format, tc.want, renders[0])
		}
		if renders[0] != renders[1] {
			t.Errorf("%s %s graph export is not deterministic across runs", tc.engine, tc.format)
		}
	}
	if _, out := runOut(t, context.Background(), "msi", "", cliOpts{engine: "enum-strict", n: 2, graphOut: "-"}); !strings.Contains(out, `digraph "MSI"`) {
		t.Errorf("-graph-out - printed no DOT:\n%s", out)
	}
	if _, err := run(context.Background(), "msi", "", cliOpts{engine: "enum-strict", n: 2, graphOut: filepath.Join(dir, "g.svg"), graphFormat: "svg"}); err == nil {
		t.Error("unknown -graph-format must error")
	}
}

// TestRunSymbolicGraphOut exercises -graph-out on symbolic runs: the
// global diagram over the essential states, byte-identical across runs in
// both formats.
func TestRunSymbolicGraphOut(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ format, want string }{
		{"dot", "digraph"},
		{"json", `"kind": "global"`},
	} {
		path := filepath.Join(dir, "g."+tc.format)
		var renders []string
		for range 2 {
			if code, err := run(context.Background(), "illinois", "", cliOpts{graphOut: path, graphFormat: tc.format}); err != nil || code != 0 {
				t.Fatalf("%s: code %d err %v", tc.format, code, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			renders = append(renders, string(data))
		}
		if !strings.Contains(renders[0], tc.want) {
			t.Errorf("%s render lacks %q:\n%s", tc.format, tc.want, renders[0])
		}
		if renders[0] != renders[1] {
			t.Errorf("%s graph export is not deterministic across runs", tc.format)
		}
	}
}

// TestInterruptCheckpointResume is the CLI-level acceptance path for enum
// runs: a run stopped by its deadline or by its memory budget writes a
// checkpoint naming the protocol and cache count, and resuming it — with
// no protocol flag, at one or two workers — prints exactly what an
// uninterrupted run prints.
func TestInterruptCheckpointResume(t *testing.T) {
	for _, tc := range []struct {
		name      string
		protoName string
		n         int
		ctx       context.Context
		memBudget int64
	}{
		{"deadline", "illinois", 4, expired(t), 0},
		{"level-boundary budget", "dragon", 5, context.Background(), 116000},
	} {
		_, want := runOut(t, context.Background(), tc.protoName, "", cliOpts{engine: "enum-strict", n: tc.n, workers: 1})
		for _, workers := range []int{1, 2} {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			o := cliOpts{engine: "enum-strict", n: tc.n, workers: workers, memBudget: tc.memBudget, checkpoint: ckpt}
			if code, _ := runOut(t, tc.ctx, tc.protoName, "", o); code != 3 {
				t.Fatalf("%s: interrupted run exit code %d, want 3", tc.name, code)
			}
			data, _, err := (&ckptio.Store{Path: ckpt}).Load()
			if err != nil {
				t.Fatalf("%s: no usable checkpoint written: %v", tc.name, err)
			}
			cp, err := enum.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.EqualFold(cp.Protocol, tc.protoName) || cp.N != tc.n {
				t.Fatalf("%s: checkpoint identifies %s/n=%d", tc.name, cp.Protocol, cp.N)
			}
			code, got := runOut(t, context.Background(), "", "", cliOpts{engine: "enum-strict", workers: workers, resume: ckpt})
			if code != 0 || got != want {
				t.Errorf("%s at %d workers: resumed exit %d, output\n%s\nwant\n%s", tc.name, workers, code, got, want)
			}
		}
	}
}

// TestResumeGraphOut stops an enum run by its memory budget with
// -checkpoint and no -graph-out, then resumes it with -graph-out: the
// diagram must be byte-identical to an uninterrupted run's, replayed from
// the provenance the checkpoint carried over.
// The budgets stop each run after some levels: dragon strict n=5 at 41 of
// its states, dragon counting n=8 at 9 of its 19.
func TestResumeGraphOut(t *testing.T) {
	for _, tc := range []struct {
		engine    string
		n         int
		memBudget int64
	}{
		{"enum-strict", 5, 116000},
		{"enum-counting", 8, 139600},
	} {
		dir := t.TempDir()
		want := filepath.Join(dir, "want.dot")
		if code, err := run(context.Background(), "dragon", "", cliOpts{engine: tc.engine, n: tc.n, graphOut: want}); err != nil || code != 0 {
			t.Fatalf("%s: uninterrupted run: code %d err %v", tc.engine, code, err)
		}
		ckpt := filepath.Join(dir, "run.ckpt")
		o := cliOpts{engine: tc.engine, n: tc.n, memBudget: tc.memBudget, checkpoint: ckpt}
		if code, _ := runOut(t, context.Background(), "dragon", "", o); code != 3 {
			t.Fatalf("%s: budgeted run exit code %d, want 3", tc.engine, code)
		}
		data, _, err := (&ckptio.Store{Path: ckpt}).Load()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := enum.DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.Visited) < 2 || len(cp.Frontier) == 0 {
			t.Fatalf("%s: checkpoint holds %d visited and %d frontier states, want a mid-run stop",
				tc.engine, len(cp.Visited), len(cp.Frontier))
		}
		got := filepath.Join(dir, "got.dot")
		if code, err := run(context.Background(), "", "", cliOpts{engine: tc.engine, resume: ckpt, graphOut: got}); err != nil || code != 0 {
			t.Fatalf("%s: resumed run: code %d err %v", tc.engine, code, err)
		}
		a, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: resumed -graph-out differs from the uninterrupted run's:\n%s\nwant\n%s", tc.engine, b, a)
		}
	}
}

// errAfter is a context whose Err reports a passed deadline from call
// limit+1 on; Done never fires. The calls of a run that is never stopped
// count the checks it makes, which places a deadline just past them in
// another run.
type errAfter struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.DeadlineExceeded
	}
	return nil
}

// stderrOf runs f and returns what it wrote to os.Stderr.
func stderrOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	stderr := os.Stderr
	os.Stderr = w
	f()
	os.Stderr = stderr
	w.Close()
	return <-out
}

// TestGraphOutStopsInDiagram: a -graph-out run whose deadline passes after
// its enumeration completed, while the diagram is built, exits 3 like a run
// stopped during the enumeration. It prints the stop reason and writes no
// file.
func TestGraphOutStopsInDiagram(t *testing.T) {
	o := cliOpts{engine: "enum-strict", n: 5}
	enumOnly := &errAfter{Context: context.Background(), limit: math.MaxInt64}
	if code, _ := runOut(t, enumOnly, "dragon", "", o); code != 0 {
		t.Fatalf("unbounded run exit code %d", code)
	}
	o.graphOut = filepath.Join(t.TempDir(), "g.dot")
	ctx := &errAfter{Context: context.Background(), limit: enumOnly.calls.Load()}
	var code int
	stderr := stderrOf(t, func() { code, _ = runOut(t, ctx, "dragon", "", o) })
	if code != runctl.ExitStopped {
		t.Errorf("exit code %d, want %d", code, runctl.ExitStopped)
	}
	if want := "stopped early: " + runctl.ErrDeadline.Error(); !strings.Contains(stderr, want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr)
	}
	if _, err := os.Stat(o.graphOut); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a stopped diagram left %s (stat: %v)", o.graphOut, err)
	}
	if ctx.calls.Load() <= ctx.limit {
		t.Error("the diagram build never checked its context")
	}
}

// TestGraphOutSpilling: the diagram of a run whose visited set spilled out
// of core is byte-identical to the in-memory run's, since it is replayed
// from the provenance records rather than read from the spilled store.
func TestGraphOutSpilling(t *testing.T) {
	dir := t.TempDir()
	spillDir := filepath.Join(dir, "spill")
	var renders [][]byte
	for i, o := range []cliOpts{
		{engine: "enum-strict", n: 8},
		{engine: "enum-strict", n: 8, memBudget: 250000, spillDir: spillDir},
	} {
		o.graphOut = filepath.Join(dir, fmt.Sprintf("g%d.dot", i))
		if code, err := run(context.Background(), "dragon", "", o); err != nil || code != 0 {
			t.Fatalf("run %d: code %d err %v", i, code, err)
		}
		data, err := os.ReadFile(o.graphOut)
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, data)
	}
	if files, err := filepath.Glob(filepath.Join(spillDir, "spill-visited-*")); err != nil || len(files) == 0 {
		t.Fatalf("the budgeted run wrote no spill file (%v)", err)
	}
	if !bytes.Equal(renders[0], renders[1]) {
		t.Error("the spilled run's diagram differs from the in-memory run's")
	}
}

// TestResumeRejectsOtherEngine pins the -resume engine rule: a checkpoint
// resumes only under the -run that wrote it, and the usage error names
// both engines.
func TestResumeRejectsOtherEngine(t *testing.T) {
	dir := t.TempDir()
	ckpts := map[string]string{}
	for _, engine := range []string{"symbolic", "enum-strict", "enum-counting"} {
		ckpts[engine] = filepath.Join(dir, engine+".ckpt")
		o := cliOpts{engine: engine, n: 3, checkpoint: ckpts[engine]}
		if code, _ := runOut(t, expired(t), "illinois", "", o); code != 3 {
			t.Fatalf("%s: interrupted run exit code %d, want 3", engine, code)
		}
	}
	for _, tc := range []struct{ wrote, resume string }{
		{"symbolic", "enum-strict"},
		{"enum-strict", "symbolic"},
		{"enum-counting", "enum-strict"},
	} {
		_, err := run(context.Background(), "", "", cliOpts{engine: tc.resume, resume: ckpts[tc.wrote]})
		if err == nil || !strings.Contains(err.Error(), "-run "+tc.wrote) || !strings.Contains(err.Error(), "-run "+tc.resume) {
			t.Errorf("%s checkpoint under -run %s: err %v, want a usage error naming both engines", tc.wrote, tc.resume, err)
		}
	}
}

// TestSpecCheckpointResume checkpoints and resumes an enum run of a -spec
// protocol: the checkpoint names a protocol that is not built in, so the
// resume needs the source again, and then prints what an uninterrupted
// run prints.
func TestSpecCheckpointResume(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", "dragon.ccpsl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec := filepath.Join(dir, "dragon-copy.ccpsl")
	if err := os.WriteFile(spec, bytes.Replace(src, []byte("protocol Dragon"), []byte("protocol DragonCopy"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, want := runOut(t, context.Background(), "", spec, cliOpts{engine: "enum-strict", n: 5})
	if !strings.Contains(want, "protocol DragonCopy") {
		t.Fatalf("uninterrupted run:\n%s", want)
	}
	ckpt := filepath.Join(dir, "run.ckpt")
	o := cliOpts{engine: "enum-strict", n: 5, memBudget: 116000, checkpoint: ckpt}
	if code, _ := runOut(t, context.Background(), "", spec, o); code != 3 {
		t.Fatalf("budgeted run exit code %d, want 3", code)
	}
	if _, err := run(context.Background(), "", "", cliOpts{engine: "enum-strict", resume: ckpt}); err == nil || !strings.Contains(err.Error(), "not built in") {
		t.Errorf("resume without a source: err %v, want the not-built-in usage error", err)
	}
	code, got := runOut(t, context.Background(), "", spec, cliOpts{engine: "enum-strict", resume: ckpt})
	if code != 0 || got != want {
		t.Errorf("resumed exit %d, output\n%s\nwant\n%s", code, got, want)
	}
}
