package ccpsl

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/fsm"
)

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"empty", "", `expected "protocol"`},
		{"missing states", "protocol P\n", `expected "states"`},
		{"bad characteristic", "protocol P\ncharacteristic magic\nstates {\n I initial\n V valid readable\n}\n", "characteristic must be"},
		{"no initial", "protocol P\nstates {\n I\n V valid readable\n}\n", "no state is marked initial"},
		{"duplicate initial", "protocol P\nstates {\n I initial\n V initial valid\n}\n", "duplicate initial"},
		{"unknown flag", "protocol P\nstates {\n I initial frozen\n}\n", "unknown state flag"},
		{"unknown clause", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n whence I\n}\n", "unknown clause"},
		{"missing from", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n next V\n data memory\n}\n", "missing from clause"},
		{"missing next", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n data memory\n}\n", "missing next clause"},
		{"missing data", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n next V\n}\n", "missing data clause"},
		{"bad guard kind", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R when somebody V\n next V\n data memory\n}\n", "guard must be"},
		{"bad data source", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n next V\n data teleport\n}\n", "data source must be"},
		{"bad data flag", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n next V\n data memory loudly\n}\n", "unknown data flag"},
		{"from-cache no suppliers", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n next V\n data from-cache store\n}\n", "at least one supplier"},
		{"duplicate observe", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n next V\n observe V -> I, V -> V\n data memory\n}\n", "duplicate observe"},
		{"duplicate from", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n from I on W\n next V\n data memory\n}\n", "duplicate from"},
		{"stray character", "protocol P$\n", "unexpected character"},
		{"undeclared rule state", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from Q on R\n next V\n data memory\n}\n", "undeclared From state"},
		{"empty ops", "protocol P\nops\nstates {\n I initial\n V valid readable\n}\n", "at least one operation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	src := "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n whence I\n}\n"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 7") {
		t.Fatalf("error should point at line 7: %v", err)
	}
}

func TestParseComments(t *testing.T) {
	src := `# heading comment
protocol P  # trailing comment
characteristic null
# comment between declarations
states {
  I initial   # the invalid state
  V valid readable
}
rule miss { from I on R
            next V
            data memory }
rule hit  { from V on R
            next V
            data keep }
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.States) != 2 || len(p.Rules) != 2 {
		t.Fatalf("comments disturbed parsing: %d states, %d rules", len(p.States), len(p.Rules))
	}
}

func TestParseCustomOps(t *testing.T) {
	src := `protocol P
ops R F
states {
  I initial
  V valid readable
}
rule miss  { from I on R
             next V
             data memory }
rule flush { from V on F
             next I
             data keep drop }
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 2 || p.Ops[1] != "F" {
		t.Fatalf("ops = %v", p.Ops)
	}
}

func TestParseGuardLists(t *testing.T) {
	src := `protocol P
characteristic sharing
states {
  I initial
  A valid readable
  B valid readable
}
rule rm-any { from I on R when any-other A, B
              next A
              data from-cache A, B }
rule rm-no  { from I on R when no-other A, B
              next B
              data memory }
rule ha     { from A on R
              next A
              data keep }
rule hb     { from B on R
              next B
              data keep }
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.RulesFor("I", fsm.OpRead)[0]
	if r.Guard.Kind != fsm.GuardAnyOther || len(r.Guard.States) != 2 {
		t.Fatalf("guard = %+v", r.Guard)
	}
	if len(r.Data.Suppliers) != 2 {
		t.Fatalf("suppliers = %v", r.Data.Suppliers)
	}
}

func TestLexerArrowVersusHyphen(t *testing.T) {
	toks, err := lex("Valid-Exclusive -> Shared-Dirty")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	if kinds[0] != tokIdent || texts[0] != "Valid-Exclusive" {
		t.Fatalf("first token %v %q", kinds[0], texts[0])
	}
	if kinds[1] != tokArrow {
		t.Fatalf("second token %v, want arrow", kinds[1])
	}
	if kinds[2] != tokIdent || texts[2] != "Shared-Dirty" {
		t.Fatalf("third token %v %q", kinds[2], texts[2])
	}
}

func TestParseRejectsSemanticErrorsViaValidate(t *testing.T) {
	// Syntactically fine, semantically broken: the initial state is a
	// valid copy. Parse must surface the fsm.Validate error.
	src := `protocol P
states {
  I initial valid readable
  V valid readable
}
rule hit { from V on R
           next V
           data keep }
`
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "must not be a valid-copy state") {
		t.Fatalf("want validation error, got %v", err)
	}
}

// TestParseRejectsRepeatedInvariantFlag: "owner owner" on Illinois's Dirty
// line used to parse, and the symbolic checker then reported owners in
// Dirty and Dirty coexisting. It is now an error at that line, carrying the
// typed fsm cause.
func TestParseRejectsRepeatedInvariantFlag(t *testing.T) {
	src, err := os.ReadFile("../../specs/illinois.ccpsl")
	if err != nil {
		t.Fatal(err)
	}
	const line = "  Dirty valid readable exclusive owner\n"
	text := string(src)
	at := strings.Index(text, line)
	if at < 0 {
		t.Fatal("Dirty line not found in specs/illinois.ccpsl")
	}
	wantLine := strings.Count(text[:at], "\n") + 1
	_, err = Parse(strings.Replace(text, line, "  Dirty valid readable exclusive owner owner\n", 1))
	var perr *Error
	if !errors.As(err, &perr) || perr.Line != wantLine {
		t.Fatalf("want a ccpsl error at line %d, got %v", wantLine, err)
	}
	var dup *fsm.DuplicateInvariantError
	if !errors.As(err, &dup) || dup.Set != "Owners" || dup.State != "Dirty" {
		t.Fatalf("want a DuplicateInvariantError for Owners/Dirty, got %v", err)
	}
}
