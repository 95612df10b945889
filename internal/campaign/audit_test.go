package campaign

import (
	"context"
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/enum"
	"repro/internal/symbolic"
)

// sharedPrefixPair finds two witnesses of vs whose paths agree on their
// first two hops and differ later, and returns their indices.
func sharedPrefixPair(vs []enum.Violation) (int, int, bool) {
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			a, b := vs[i].Path, vs[j].Path
			if len(a) < 3 || len(b) < 3 {
				continue
			}
			if a[0] == b[0] && a[1] == b[1] {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// TestForgedEnumWitnessNotVouchedFor alters one hop of a witness inside
// the prefix it shares with a genuine witness, and audits it both inside
// the run's full witness list and alone. Sharing the replay of that
// prefix must not let the genuine witness vouch for the forged one: both
// audits must reject it with the same note, and every genuine witness
// must stay confirmed.
func TestForgedEnumWitnessNotVouchedFor(t *testing.T) {
	const n = 3
	forgeries := map[string]func(path []enum.PathStep, other []enum.PathStep){
		// Claim the key the other witness reaches one hop later.
		"claimed-key": func(path, other []enum.PathStep) { path[1].To = other[2].To },
		// Issue hop 1 from a different cache, keeping the claimed key.
		"cache": func(path, _ []enum.PathStep) { path[1].Cache = (path[1].Cache + 1) % n },
		// Name a cache outside the run.
		"cache-range": func(path, _ []enum.PathStep) { path[1].Cache = n },
	}
	found := 0
	for _, p := range auditCorpus(t) {
		res, err := enum.ExhaustiveContext(context.Background(), p, n, enum.Options{})
		if err != nil {
			t.Fatal(err)
		}
		i, j, ok := sharedPrefixPair(res.Violations)
		if !ok {
			continue
		}
		found++
		for name, forge := range forgeries {
			forged := res.Violations[i]
			forged.Path = append([]enum.PathStep(nil), forged.Path...)
			forge(forged.Path, res.Violations[j].Path)
			if forged.Path[1] == res.Violations[i].Path[1] {
				continue // the alteration happens to be a no-op here
			}
			all := append(append([]enum.Violation(nil), res.Violations...), forged)
			got := ConfirmEnumWitnesses(p, n, enum.ModeStrict, false, all)
			alone := ConfirmEnumWitnesses(p, n, enum.ModeStrict, false, []enum.Violation{forged})[0]
			if alone.Confirmed {
				t.Errorf("%s %s: forged witness confirmed alone", p.Name, name)
			}
			if last := got[len(got)-1]; last != alone {
				t.Errorf("%s %s: forged witness audited with its run = %+v, alone = %+v", p.Name, name, last, alone)
			}
			for k, v := range got[:len(got)-1] {
				if !v.Confirmed {
					t.Errorf("%s %s: genuine witness %d rejected: %s", p.Name, name, k, v.Note)
				}
			}
		}
		if found == 5 {
			break
		}
	}
	if found == 0 {
		t.Fatal("no run has two witnesses sharing a two-hop prefix")
	}
}

// TestForgedSymbolicWitnessNotVouchedFor is the symbolic counterpart: one
// label of a witness sharing its first label with a genuine witness is
// altered, and the run-level audit must reject it exactly as it is
// rejected alone.
func TestForgedSymbolicWitnessNotVouchedFor(t *testing.T) {
	found := 0
	for _, p := range auditCorpus(t) {
		eng, err := symbolic.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.ExpandContext(context.Background(), symbolic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		vs := res.Violations
		i, ok := sharedLabelWitness(vs)
		if !ok {
			continue
		}
		found++
		forged := vs[i]
		forged.Path = append([]symbolic.PathStep(nil), forged.Path...)
		forged.Path[1].Label.Origin = "No-Such-State"
		all := append(append([]symbolic.StateViolation(nil), vs...), forged)
		got := ConfirmSymbolicWitnesses(p, false, all)
		alone := ConfirmSymbolicWitnesses(p, false, []symbolic.StateViolation{forged})[0]
		want := fmt.Sprintf("n=%d: path step 1 (%s) has no concrete counterpart", auditMaxN, forged.Path[1].Label)
		if alone.Confirmed || alone.Note != want {
			t.Errorf("%s: forged witness alone = %+v, want note %q", p.Name, alone, want)
		}
		if last := got[len(got)-1]; last != alone {
			t.Errorf("%s: forged witness audited with its run = %+v, alone = %+v", p.Name, last, alone)
		}
		for k, v := range got[:len(got)-1] {
			if !v.Confirmed {
				t.Errorf("%s: genuine witness %d rejected: %s", p.Name, k, v.Note)
			}
		}
		if found == 5 {
			break
		}
	}
	if found == 0 {
		t.Fatal("no run has two symbolic witnesses sharing a first label")
	}
}

// sharedLabelWitness finds a witness of at least two steps whose first
// label another witness of vs shares.
func sharedLabelWitness(vs []symbolic.StateViolation) (int, bool) {
	for i := range vs {
		for j := range vs {
			if i != j && len(vs[i].Path) >= 2 && len(vs[j].Path) >= 1 && vs[i].Path[0].Label == vs[j].Path[0].Label {
				return i, true
			}
		}
	}
	return 0, false
}

// TestAuditFrontierCapNamed runs the symbolic audit with a frontier cap
// small enough to truncate. A witness the uncapped audit confirms but the
// capped one rejects must blame the cap, naming the step where the
// frontier was truncated, not the path.
func TestAuditFrontierCapNamed(t *testing.T) {
	const smallCap = 2
	capNote := regexp.MustCompile(fmt.Sprintf(`^n=%d: frontier cap %d reached at step \d+$`, auditMaxN, smallCap))
	blamed := 0
	for _, p := range auditCorpus(t) {
		eng, err := symbolic.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.ExpandContext(context.Background(), symbolic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		full := ConfirmSymbolicWitnesses(p, false, res.Violations)
		capped := confirmSymbolic(p, false, res.Violations, smallCap)
		for i := range full {
			if !full[i].Confirmed || capped[i].Confirmed {
				continue
			}
			blamed++
			if !capNote.MatchString(capped[i].Note) {
				t.Errorf("%s witness %d: capped audit note %q does not name the cap", p.Name, i, capped[i].Note)
			}
		}
	}
	if blamed == 0 {
		t.Fatalf("a frontier cap of %d truncated no witness into failure", smallCap)
	}
}

// TestAuditImportsNoCompiledCore keeps the audit an engine-independent
// path: the campaign package must not import the compiled protocol tables
// the engines step through.
func TestAuditImportsNoCompiledCore(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/compile"` {
				t.Errorf("%s imports repro/internal/compile", name)
			}
		}
	}
}
