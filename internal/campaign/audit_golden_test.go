package campaign

import (
	"bufio"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/symbolic"
)

var updateAuditGolden = flag.Bool("update", false, "rewrite testdata/audit_golden_digests.txt from the current auditor")

const auditGoldenPath = "testdata/audit_golden_digests.txt"

// auditGoldenN is the cache count of the enumeration runs whose witnesses
// the golden sweep audits.
const auditGoldenN = 3

// auditCorpus returns every shipped spec plus every mutant of it, in a
// fixed order.
func auditCorpus(t testing.TB) []*fsm.Protocol {
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

// auditLine renders one run's audit as a digest line: the witness and
// confirmation counts in clear, and a SHA-256 over every witness's
// (confirmed, note) outcome in result order.
func auditLine(p *fsm.Protocol, config string, verdicts []Verdict) string {
	h := sha256.New()
	confirmed := 0
	for _, v := range verdicts {
		if v.Confirmed {
			confirmed++
		}
		fmt.Fprintf(h, "%v %q\n", v.Confirmed, v.Note)
	}
	return fmt.Sprintf("%s %s witnesses=%d confirmed=%d sha256=%x",
		strings.ReplaceAll(p.Name, " ", "_"), config, len(verdicts), confirmed, h.Sum(nil))
}

// auditGoldenRuns audits every witness of the golden sweep: each corpus
// protocol's symbolic run in default and strict mode, and its strict and
// counting enumerations at auditGoldenN caches, plus two mismatched
// audits whose witnesses must fail.
func auditGoldenRuns(t *testing.T, each func(p *fsm.Protocol, config string, verdicts []Verdict)) {
	ctx := context.Background()
	for _, p := range auditCorpus(t) {
		eng, err := symbolic.NewEngine(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, strict := range []bool{false, true} {
			res, err := eng.ExpandContext(ctx, symbolic.Options{Strict: strict})
			if err != nil {
				t.Fatalf("%s symbolic: %v", p.Name, err)
			}
			config := "symbolic-default"
			if strict {
				config = "symbolic-strict"
			}
			each(p, config, ConfirmSymbolicWitnesses(p, strict, res.Violations))
			if strict {
				// Strict-mode witnesses audited without the CleanShared
				// check: a witness claiming only that kind must fail, which
				// pins the endpoint note.
				each(p, "symbolic-strict-audited-default", ConfirmSymbolicWitnesses(p, false, res.Violations))
			}
		}
		for _, mode := range []string{enum.ModeStrict, enum.ModeCounting} {
			var res *enum.Result
			if mode == enum.ModeStrict {
				res, err = enum.ExhaustiveContext(ctx, p, auditGoldenN, enum.Options{})
			} else {
				res, err = enum.CountingContext(ctx, p, auditGoldenN, enum.Options{})
			}
			if err != nil {
				t.Fatalf("%s enum %s: %v", p.Name, mode, err)
			}
			config := fmt.Sprintf("enum-%s-n%d", mode, auditGoldenN)
			each(p, config, ConfirmEnumWitnesses(p, auditGoldenN, mode, false, res.Violations))
			if mode == enum.ModeStrict {
				// Strict-mode paths replayed under counting keys fail at
				// their first hop whose two renderings differ, which pins
				// the hop-mismatch note and both key renderings.
				each(p, config+"-audited-counting", ConfirmEnumWitnesses(p, auditGoldenN, enum.ModeCounting, false, res.Violations))
			}
		}
	}
}

// TestAuditGoldenDigests freezes the witness audit's verdicts — every
// (confirmed, note) pair — over every shipped spec and mutant, for the
// symbolic engine in default and strict mode and for strict and counting
// enumeration at n=3, and the failure notes of two deliberately mismatched
// audits. Regenerate with
// `go test ./internal/campaign -run TestAuditGoldenDigests -update` only
// for a deliberate behaviour change.
func TestAuditGoldenDigests(t *testing.T) {
	var got []string
	auditGoldenRuns(t, func(p *fsm.Protocol, config string, verdicts []Verdict) {
		got = append(got, auditLine(p, config, verdicts))
	})
	if *updateAuditGolden {
		if err := os.MkdirAll(filepath.Dir(auditGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(auditGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readAuditGolden(auditGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("audit drift:\n  got:  %s\n  want: %s", got[i], want[i])
		}
	}
}

func readAuditGolden(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}
