package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/replay"
	"repro/internal/runctl"
)

// invoke runs one cctrace command line in-process and returns its exit
// code and output streams.
func invoke(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	c := &cli{stdin: strings.NewReader(stdin), stdout: &out, stderr: &errOut}
	code = c.run(args)
	return code, out.String(), errOut.String()
}

// goldenSections splits a golden file into its "=== " header fields and
// the body under each header.
func goldenSections(t *testing.T, path string) (headers [][]string, bodies []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range strings.Split(string(data), "=== ")[1:] {
		head, body, _ := strings.Cut(sec, "\n")
		headers = append(headers, strings.Fields(head))
		bodies = append(bodies, body)
	}
	return headers, bodies
}

// TestStepGolden pins `cctrace step` byte for byte against
// testdata/step_golden.txt: one fixed script for every built-in protocol
// at n=3, plus the Illinois walkthrough of TestStepScript. Each header is
// "=== PROTOCOL N SCRIPT..."; testdata/step_golden.sh regenerates the file
// from its headers.
func TestStepGolden(t *testing.T) {
	headers, bodies := goldenSections(t, filepath.Join("testdata", "step_golden.txt"))
	seen := map[string]bool{}
	for i, h := range headers {
		script := strings.Join(h[2:], " ")
		code, out, errOut := invoke("", "step", "-protocol", h[0], "-n", h[1], "-script", script)
		if code != runctl.ExitClean {
			t.Fatalf("step %v: exit %d, stderr %q", h, code, errOut)
		}
		if out != bodies[i] {
			t.Errorf("step %v output differs from the golden file:\ngot:\n%s\nwant:\n%s", h, out, bodies[i])
		}
		seen[h[0]] = true
	}
	for _, name := range protocols.Names() {
		if !seen[name] {
			t.Errorf("golden file has no section for built-in protocol %s", name)
		}
	}
}

// TestStepMutantGolden pins the violation lines: every mutant whose
// walkthrough trips an invariant renders byte-identically to
// testdata/step_mutants_golden.txt ("=== PROTOCOL KIND RULE N SCRIPT...").
func TestStepMutantGolden(t *testing.T) {
	headers, bodies := goldenSections(t, filepath.Join("testdata", "step_mutants_golden.txt"))
	if len(headers) == 0 {
		t.Fatal("empty mutant golden file")
	}
	for i, h := range headers {
		p, err := protocols.ByName(h[0])
		if err != nil {
			t.Fatal(err)
		}
		var mp *fsm.Protocol
		for _, m := range mutate.Catalog(p) {
			if m.Kind == h[1] && m.Rule == h[2] {
				mp = m.Protocol
			}
		}
		if mp == nil {
			t.Fatalf("no mutant %s/%s of %s", h[1], h[2], h[0])
		}
		script := strings.Join(h[4:], "\n")
		var out strings.Builder
		if err := stepSession(context.Background(), &out, strings.NewReader(script), mp, 3, false); err != nil {
			out.WriteString("error: " + err.Error() + "\n")
		}
		if out.String() != bodies[i] {
			t.Errorf("mutant %v output differs from the golden file:\ngot:\n%s\nwant:\n%s", h[:3], out.String(), bodies[i])
		}
		if !strings.Contains(bodies[i], "  !! ") {
			t.Errorf("mutant %v section shows no violation line", h[:3])
		}
	}
}

func TestStepParseRef(t *testing.T) {
	cases := []struct {
		tok   string
		n     int
		cache int
		op    fsm.Op
		ok    bool
	}{
		{"0R", 3, 0, fsm.OpRead, true},
		{"2W", 3, 2, fsm.OpWrite, true},
		{"1Z", 3, 1, fsm.OpReplace, true},
		{"1z", 3, 1, fsm.OpReplace, true},
		{"12R", 16, 12, fsm.OpRead, true},
		{"3R", 3, 0, "", false},  // out of range
		{"xR", 3, 0, "", false},  // bad index
		{"1Q", 3, 0, "", false},  // bad op
		{"R", 3, 0, "", false},   // too short
		{"-1R", 3, 0, "", false}, // negative
	}
	for _, tc := range cases {
		cache, op, err := parseRef(tc.tok, tc.n)
		if tc.ok && (err != nil || cache != tc.cache || op != tc.op) {
			t.Errorf("parseRef(%q) = %d,%s,%v", tc.tok, cache, op, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseRef(%q) should fail", tc.tok)
		}
	}
}

func TestStepScript(t *testing.T) {
	code, s, errOut := invoke("", "step", "-protocol", "illinois", "-n", "3", "-script", "0R 1R 1W 0R q")
	if code != runctl.ExitClean {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{
		"protocol Illinois",
		"rule read-miss-from-memory",
		"rule read-miss-from-cache",
		"rule write-hit-shared",
		"rule read-miss-dirty-owner",
		"Valid-Exclusive",
		"Dirty",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("step output missing %q:\n%s", want, s)
		}
	}
	// Memory legitimately goes stale under a write-back protocol; cache
	// lines and the violation marker must stay clean.
	if strings.Contains(s, "!!") {
		t.Errorf("coherent walkthrough must not flag violations:\n%s", s)
	}
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "cache ") && strings.Contains(line, "STALE") {
			t.Errorf("a cache line went stale in a coherent walkthrough: %q", line)
		}
	}
}

func TestStepNoOpReplacement(t *testing.T) {
	code, out, _ := invoke("", "step", "-protocol", "msi", "-n", "2", "-script", "0Z")
	if code != runctl.ExitClean || !strings.Contains(out, "no-op") {
		t.Errorf("replacing an absent block must be reported as a no-op (exit %d):\n%s", code, out)
	}
}

func TestStepScriptErrors(t *testing.T) {
	for _, args := range [][]string{
		{"step", "-protocol", "illinois", "-n", "2", "-script", "9R"}, // out-of-range reference
		{"step", "-protocol", "nonexistent", "-n", "2", "-script", "0R"},
		{"step", "-protocol", "illinois", "-n", "0", "-script", "0R"},
		{"step", "-protocol", "illinois", "extra"},
	} {
		if code, _, errOut := invoke("", args...); code != runctl.ExitUsage || !strings.HasPrefix(errOut, "cctrace: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 with a cctrace: message", args, code, errOut)
		}
	}
}

func TestStepInteractiveToleratesBadInput(t *testing.T) {
	code, out, _ := invoke("bogus\n0R\nquit\n", "step", "-protocol", "illinois", "-n", "2")
	if code != runctl.ExitClean {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "enter references") || !strings.Contains(out, `reference "bogus"`) {
		t.Errorf("interactive mode must prompt and report the bad token:\n%s", out)
	}
	if !strings.Contains(out, "rule read-miss-from-memory") {
		t.Error("interactive mode must continue after a bad token")
	}
}

// TestStepCanceledStops checks that a canceled context ends the session
// with a structured stop error before the next reference is applied, and
// that the command maps a stop to exit code 3.
func TestStepCanceledStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := stepSession(ctx, &out, strings.NewReader("0R\n1W\n"), protocols.Illinois(), 2, false)
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want runctl.ErrCanceled", err)
	}
	if strings.Contains(out.String(), "step 1") {
		t.Error("no step must execute under a pre-canceled context")
	}
	code, _, errOut := invoke("", "step", "-timeout", "1ns", "-script", "0R 1W")
	if code != runctl.ExitStopped || !strings.Contains(errOut, "stopped early") {
		t.Errorf("expired -timeout: exit %d, stderr %q; want 3 and a stopped-early note", code, errOut)
	}
}

// TestGenDeterministic checks that every generator materializes the same
// bytes for the same spec, to stdout and to a file alike.
func TestGenDeterministic(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range replay.Kinds() {
		for _, gz := range []string{"-gzip=false", "-gzip=true"} {
			args := []string{"gen", "-workload", kind, "-seed", "7", "-caches", "3", "-blocks", "8", "-ops", "500", gz}
			code1, first, _ := invoke("", append(args, "-o", "-")...)
			code2, second, _ := invoke("", append(args, "-o", "-")...)
			path := filepath.Join(dir, kind+gz)
			code3, _, _ := invoke("", append(args, "-o", path)...)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if code1 != 0 || code2 != 0 || code3 != 0 {
				t.Fatalf("%s %s: exit codes %d %d %d", kind, gz, code1, code2, code3)
			}
			if first == "" || first != second || first != string(file) {
				t.Errorf("%s %s: same spec, different bytes", kind, gz)
			}
		}
	}
}

// TestGenReplayWorkloads runs the generated-workload pipe
// (`cctrace gen -o - | cctrace replay -`) over every generator.
func TestGenReplayWorkloads(t *testing.T) {
	for _, kind := range replay.Kinds() {
		proto := "illinois"
		if kind == replay.KindLock {
			proto = "lock-msi"
		}
		code, trace, errOut := invoke("", "gen", "-workload", kind, "-caches", "4", "-blocks", "8", "-ops", "5000", "-o", "-")
		if code != runctl.ExitClean {
			t.Fatalf("gen %s: exit %d, stderr %q", kind, code, errOut)
		}
		code, out, errOut := invoke(trace, "replay", "-protocol", proto, "-capacity", "4", "-")
		if code != runctl.ExitClean || !strings.Contains(out, "5000") {
			t.Errorf("replay %s through %s: exit %d, stderr %q:\n%s", kind, proto, code, errOut, out)
		}
	}
}

// TestReplayCompareExitCodes covers exit codes 0 and 3 end to end and
// the violation classification (2) of a finished run.
func TestReplayCompareExitCodes(t *testing.T) {
	_, trace, _ := invoke("", "gen", "-workload", "migratory", "-ops", "2000", "-o", "-")
	if code, _, errOut := invoke(trace, "replay", "-protocol", "mesi", "-"); code != runctl.ExitClean {
		t.Errorf("clean replay: exit %d, stderr %q", code, errOut)
	}
	code, out, _ := invoke(trace, "compare", "-protocols", "msi,dragon", "-json", "-", "-")
	if code != runctl.ExitClean {
		t.Errorf("clean compare: exit %d", code)
	}
	if rep, err := replay.DecodeReport([]byte(out)); err != nil || len(rep.Results) != 2 {
		t.Errorf("compare -json - must print only the JSON report: %v\n%s", err, out)
	}
	for _, sub := range []string{"replay", "compare"} {
		code, _, errOut := invoke(trace, sub, "-timeout", "1ns", "-")
		if code != runctl.ExitStopped || !strings.Contains(errOut, "stopped early") {
			t.Errorf("%s under an expired -timeout: exit %d, stderr %q; want 3", sub, code, errOut)
		}
	}
	c := &cli{stderr: new(bytes.Buffer)}
	bad := &replay.Result{Violations: []fsm.Violation{{}}}
	if code := c.exitCodeFor(bad); code != runctl.ExitViolation {
		t.Errorf("violations: exit %d, want %d", code, runctl.ExitViolation)
	}
	stale := &replay.Result{}
	stale.Stats.StaleReads = 1
	if code := c.exitCodeFor(stale); code != runctl.ExitViolation {
		t.Errorf("stale reads: exit %d, want %d", code, runctl.ExitViolation)
	}
}

// TestUsageErrors checks that malformed command lines exit 1 with a
// message naming the problem, before any trace is read.
// TestReplayPinnedLockFitsOverCapacity replays a held Lock-MSI lock (a
// state with no Replace rule) into a one-block cache, then reads another
// block. The lock cannot be evicted, so the read is admitted over
// capacity; replacing the pinned victim forever would never return.
func TestReplayPinnedLockFitsOverCapacity(t *testing.T) {
	trace := "# cctrace v1\n# caches: 2\n0 l 0\n0 r 40\n"
	type outcome struct {
		code   int
		stderr string
	}
	done := make(chan outcome, 1)
	go func() {
		code, _, errOut := invoke(trace, "replay", "-protocol", "lock-msi", "-capacity", "1", "-timeout", "2s", "-")
		done <- outcome{code, errOut}
	}()
	select {
	case got := <-done:
		if got.code != runctl.ExitClean {
			t.Fatalf("exit %d, stderr %q; want 0", got.code, got.stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("replay of a pinned block did not return")
	}
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "usage:"},
		{[]string{"simulate"}, `unknown subcommand "simulate"`},
		{[]string{"replay", "-protocol", "nonexistent", "-"}, "nonexistent"},
		{[]string{"compare", "-protocols", "msi,nonexistent", "-"}, "nonexistent"},
		{[]string{"replay"}, "exactly one trace file"},
		{[]string{"compare", "a", "b"}, "exactly one trace file"},
		{[]string{"gen", "-workload", "chaotic"}, "chaotic"},
		{[]string{"gen", "-caches", "0"}, "at least one cache"},
		{[]string{"gen", "extra"}, "no positional arguments"},
		{[]string{"replay", "-n", "3", "-"}, "flag provided but not defined: -n"},
	}
	for _, sub := range []string{"replay", "compare"} {
		for _, flag := range []string{"-max-ops", "-skip-ops", "-max-blocks", "-blocksize"} {
			cases = append(cases, struct {
				args []string
				want string
			}{[]string{sub, flag, "-1", "-"}, "invalid " + flag + " -1"})
		}
	}
	for _, tc := range cases {
		code, _, errOut := invoke("", tc.args...)
		if code != runctl.ExitUsage || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 mentioning %q", tc.args, code, errOut, tc.want)
		}
	}
	if code, _, errOut := invoke("", "step", "-h"); code != runctl.ExitClean || !strings.Contains(errOut, "-script") {
		t.Errorf("step -h: exit %d, stderr %q; want 0 and the flag list", code, errOut)
	}
}
