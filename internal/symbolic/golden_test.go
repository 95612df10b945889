package symbolic

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
	"repro/internal/mutate"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.txt from the current engine")

const goldenPath = "testdata/golden_digests.txt"

// goldenCorpus returns every shipped spec plus every mutant of it, in a
// fixed order.
func goldenCorpus(t testing.TB) []*fsm.Protocol {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.ccpsl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	sort.Strings(paths)
	var out []*fsm.Protocol
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ccpsl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, p)
		for _, m := range mutate.Catalog(p) {
			out = append(out, m.Protocol)
		}
	}
	return out
}

// goldenLine runs one expansion with the given number of speculation
// workers and renders its digest line: the counters in clear, and a
// SHA-256 over everything a report is built from — the essential states
// (key and both renderings), every violation with its Detail text and
// witness path, and every spec error.
func goldenLine(t testing.TB, p *fsm.Protocol, strict bool, workers int) string {
	t.Helper()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	opts := Options{Strict: strict}
	opts.Workers = workers
	res := e.Expand(opts)
	h := sha256.New()
	for _, s := range res.Essential {
		fmt.Fprintf(h, "E %s %s %s\n", s.Key(), s.StructureString(p), s.ContextString(p))
	}
	for _, sv := range res.Violations {
		fmt.Fprintf(h, "V %s\n", sv.State.Key())
		for _, v := range sv.Violations {
			fmt.Fprintf(h, "  %s: %s\n", v.Kind, v.Detail)
		}
		for _, ps := range sv.Path {
			fmt.Fprintf(h, "  -> %s %s\n", ps.Label, ps.To.Key())
		}
	}
	for _, se := range res.SpecErrors {
		fmt.Fprintf(h, "S %s\n", se)
	}
	mode := "default"
	if strict {
		mode = "strict"
	}
	return fmt.Sprintf("%s %s essential=%d visits=%d contained=%d evicted=%d superseded=%d sha256=%x",
		strings.ReplaceAll(p.Name, " ", "_"), mode, len(res.Essential), res.Visits,
		res.Contained, res.Evicted, res.Superseded, h.Sum(nil))
}

// TestGoldenDigests freezes the engine's output over every shipped spec and
// every mutant, in default and strict modes, as digest lines. Each case runs
// inline (one worker) and through the speculation pipeline at two workers;
// both must render the same line, and that line must match the golden file.
// Any change to essential states, counters, violation text or witness paths
// shows up as a line diff. Regenerate with
// `go test ./internal/symbolic -run TestGoldenDigests -update` only for a
// deliberate behaviour change.
func TestGoldenDigests(t *testing.T) {
	var got []string
	for _, p := range goldenCorpus(t) {
		for _, strict := range []bool{false, true} {
			line := goldenLine(t, p, strict, 1)
			if spec := goldenLine(t, p, strict, 2); spec != line {
				t.Errorf("two-worker expansion diverges from one worker:\n  two: %s\n  one: %s", spec, line)
			}
			got = append(got, line)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := readLines(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest drift:\n  got:  %s\n  want: %s", got[i], want[i])
		}
	}
}

func readLines(r io.Reader) ([]string, error) {
	var out []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}
