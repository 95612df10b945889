package mutate

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/symbolic"
)

func TestCatalogProducesMutantsForEveryProtocol(t *testing.T) {
	for _, p := range protocols.All() {
		muts := Catalog(p)
		if len(muts) == 0 {
			t.Errorf("%s: no mutants generated", p.Name)
		}
	}
}

func TestMutantsValidate(t *testing.T) {
	for _, p := range protocols.All() {
		for _, m := range Catalog(p) {
			if err := m.Protocol.Validate(); err != nil {
				t.Errorf("%s: mutant does not validate: %v", m.Protocol.Name, err)
			}
		}
	}
}

func TestMutantsAreNamedAndDescribed(t *testing.T) {
	for _, m := range Catalog(protocols.Illinois()) {
		if !strings.Contains(m.Protocol.Name, "!") {
			t.Errorf("mutant name %q lacks the kind suffix", m.Protocol.Name)
		}
		if m.Kind == "" || m.Rule == "" || m.Detail == "" {
			t.Errorf("mutant %q incompletely described: %+v", m.Protocol.Name, m)
		}
	}
}

func TestCatalogDoesNotMutateOriginal(t *testing.T) {
	p := protocols.Illinois()
	before := len(p.Rules)
	var observeBefore []int
	for _, r := range p.Rules {
		observeBefore = append(observeBefore, len(r.Observe))
	}
	_ = Catalog(p)
	if len(p.Rules) != before {
		t.Fatal("catalog changed the rule count of the original")
	}
	for i, r := range p.Rules {
		if len(r.Observe) != observeBefore[i] {
			t.Fatalf("catalog mutated rule %s of the original", r.Name)
		}
	}
	res, err := symbolic.Expand(p, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal("original corrupted by Catalog")
	}
}

func TestOneMutantPerKind(t *testing.T) {
	seen := map[string]int{}
	for _, m := range Catalog(protocols.Firefly()) {
		seen[m.Kind]++
	}
	for kind, n := range seen {
		if n != 1 {
			t.Errorf("kind %s appears %d times for one protocol", kind, n)
		}
	}
}

func TestExpectedKindsPerProtocol(t *testing.T) {
	kindSet := func(name string) map[string]bool {
		p, err := protocols.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, m := range Catalog(p) {
			out[m.Kind] = true
		}
		return out
	}
	ill := kindSet("illinois")
	for _, want := range []string{"drop-invalidation", "skip-writeback",
		"skip-supplier-writeback", "exclusive-on-shared-miss"} {
		if !ill[want] {
			t.Errorf("illinois: missing mutant kind %s", want)
		}
	}
	ff := kindSet("firefly")
	for _, want := range []string{"forget-update-sharers", "forget-write-through"} {
		if !ff[want] {
			t.Errorf("firefly: missing mutant kind %s", want)
		}
	}
	// CharNull protocols must not receive the sharing-dependent mutant.
	if kindSet("msi")["exclusive-on-shared-miss"] {
		t.Error("msi: exclusive-on-shared-miss requires a sharing-detection protocol")
	}
}

func TestEveryMutantIsRefutedSymbolically(t *testing.T) {
	total := 0
	for _, p := range protocols.All() {
		for _, m := range Catalog(p) {
			total++
			res, err := symbolic.Expand(m.Protocol, symbolic.Options{Strict: true})
			if err != nil {
				t.Fatalf("%s: %v", m.Protocol.Name, err)
			}
			if res.OK() {
				t.Errorf("mutant %s (%s on rule %s) escaped detection",
					m.Protocol.Name, m.Detail, m.Rule)
			}
		}
	}
	if total < 20 {
		t.Errorf("only %d mutants across the suite; expected a larger catalog", total)
	}
}

func TestMutantsChangeBehavior(t *testing.T) {
	// Each mutant must actually differ from its original in the rule it
	// claims to break.
	for _, p := range protocols.All() {
		orig := map[string]string{}
		for i := range p.Rules {
			orig[p.Rules[i].Name] = ruleFingerprint(&p.Rules[i])
		}
		for _, m := range Catalog(p) {
			changed := false
			for i := range m.Protocol.Rules {
				r := &m.Protocol.Rules[i]
				if orig[r.Name] != ruleFingerprint(r) {
					changed = true
				}
			}
			if !changed {
				t.Errorf("mutant %s does not differ from the original", m.Protocol.Name)
			}
		}
	}
}

// ruleFingerprint summarizes the behaviorally relevant fields of a rule.
func ruleFingerprint(r *fsm.Rule) string {
	keys := make([]string, 0, len(r.Observe))
	for from, to := range r.Observe {
		keys = append(keys, string(from)+">"+string(to))
	}
	sort.Strings(keys)
	return fmt.Sprintf("%s|%s|%v|%v|%v", r.Next, strings.Join(keys, ","), r.Guard, r.Data.Suppliers,
		[]bool{r.Data.Store, r.Data.WriteThrough, r.Data.UpdateSharers,
			r.Data.SupplierWriteBack, r.Data.WriteBackSelf, r.Data.DropSelf})
}

// BenchmarkCatalog builds the mutant catalog of every built-in protocol,
// the serial part of expanding a {"sweep": {"mutants": true}} batch.
//
//	go test -run '^$' -bench BenchmarkCatalog -benchmem ./internal/mutate
func BenchmarkCatalog(b *testing.B) {
	ps := protocols.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			Catalog(p)
		}
	}
}
