package campaign

// The differential tests at the end of this file compare the production
// auditor against a reference: the auditor as it stood before the
// audit-local fingerprints, pooled frontiers and scratch replays, copied
// verbatim with its identifiers prefixed "ref". The reference must not be
// edited to follow the production code.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/randproto"
	"repro/internal/symbolic"
)

func refConfirmEnumWitnesses(p *fsm.Protocol, n int, mode string, strict bool, vs []enum.Violation) []Verdict {
	init := fsm.NewConfig(p, n)
	enum.Canonicalize(init)
	root := &refReplayNode{cfg: init}
	key, err := enum.CanonicalKey(init, mode)
	if err != nil {
		root.fail = err.Error() // reported only for an empty path
	}
	root.key = key
	out := make([]Verdict, len(vs))
	for i, v := range vs {
		out[i] = refReplayEnumWitness(p, n, mode, strict, root, v)
	}
	return out
}

type refReplayNode struct {
	cfg   *fsm.Config
	key   string
	fail  string
	kinds fsm.KindSet
	check bool // kinds is computed
	next  map[refReplayHop]*refReplayNode
}

type refReplayHop struct {
	cache int
	op    fsm.Op
}

func (nd *refReplayNode) child(p *fsm.Protocol, n int, mode string, i int, h refReplayHop) *refReplayNode {
	if c, ok := nd.next[h]; ok {
		return c
	}
	c := &refReplayNode{}
	switch {
	case h.cache < 0 || h.cache >= n:
		c.fail = fmt.Sprintf("step %d: cache %d out of range for n=%d", i, h.cache, n)
	default:
		cfg := nd.cfg.Clone()
		if _, err := fsm.Step(p, cfg, h.cache, h.op); err != nil {
			c.fail = fmt.Sprintf("step %d (%d%s): %v", i, h.cache, h.op, err)
			break
		}
		enum.Canonicalize(cfg)
		key, err := enum.CanonicalKey(cfg, mode)
		if err != nil {
			c.fail = err.Error()
			break
		}
		c.cfg, c.key = cfg, key
	}
	if nd.next == nil {
		nd.next = make(map[refReplayHop]*refReplayNode)
	}
	nd.next[h] = c
	return c
}

func refReplayEnumWitness(p *fsm.Protocol, n int, mode string, strict bool, root *refReplayNode, v enum.Violation) Verdict {
	nd := root
	for i, step := range v.Path {
		nd = nd.child(p, n, mode, i, refReplayHop{step.Cache, step.Op})
		if nd.fail != "" {
			return Verdict{Note: nd.fail}
		}
		if nd.key != step.To {
			return Verdict{Note: fmt.Sprintf("step %d (%d%s): replay reached %q, witness claims %q",
				i, step.Cache, step.Op, nd.key, step.To)}
		}
	}
	// The replayed endpoint must be the claimed erroneous state…
	if nd.fail != "" {
		return Verdict{Note: nd.fail}
	}
	claimed := v.Config.Clone()
	enum.Canonicalize(claimed)
	claimedKey, err := enum.CanonicalKey(claimed, mode)
	if err != nil {
		return Verdict{Note: err.Error()}
	}
	if nd.key != claimedKey {
		return Verdict{Note: fmt.Sprintf("replay endpoint %q is not the claimed state %q", nd.key, claimedKey)}
	}
	// …and must independently violate every claimed invariant.
	if !nd.check {
		nd.kinds, nd.check = fsm.CheckKinds(p, nd.cfg, strict), true
	}
	for _, claimedViol := range v.Violations {
		if !nd.kinds.Has(claimedViol.Kind) {
			return Verdict{Note: fmt.Sprintf("replayed state does not violate claimed invariant %s", claimedViol.Kind)}
		}
	}
	return Verdict{Confirmed: true}
}

func refConfirmSymbolicWitnesses(p *fsm.Protocol, strict bool, vs []symbolic.StateViolation) []Verdict {
	return refConfirmSymbolic(p, strict, vs, auditFrontierCap)
}

func refConfirmSymbolic(p *fsm.Protocol, strict bool, vs []symbolic.StateViolation, frontierCap int) []Verdict {
	out := make([]Verdict, len(vs))
	open := make([]int, len(vs))
	for i := range open {
		open[i] = i
	}
	for n := 2; n <= auditMaxN && len(open) > 0; n++ {
		c := &refConcretizer{p: p, n: n, strict: strict, cap: frontierCap, vs: vs, out: out}
		root := &refLabelNode{}
		for _, i := range open {
			nd := root
			for _, step := range vs[i].Path {
				nd = nd.child(step.Label)
			}
			nd.ends = append(nd.ends, i)
		}
		init := fsm.NewConfig(p, n)
		enum.Canonicalize(init)
		c.visit(root, 0, refConcFrontier{configs: []*fsm.Config{init}, capStep: -1})
		still := open[:0]
		for _, i := range open {
			if !out[i].Confirmed {
				out[i].Note = fmt.Sprintf("n=%d: %s", n, out[i].Note)
				still = append(still, i)
			}
		}
		open = still
	}
	return out
}

type refLabelNode struct {
	next  map[symbolic.Label]*refLabelNode
	order []symbolic.Label
	ends  []int
}

func (nd *refLabelNode) child(l symbolic.Label) *refLabelNode {
	if c, ok := nd.next[l]; ok {
		return c
	}
	if nd.next == nil {
		nd.next = make(map[symbolic.Label]*refLabelNode)
	}
	c := &refLabelNode{}
	nd.next[l] = c
	nd.order = append(nd.order, l)
	return c
}

type refConcFrontier struct {
	configs []*fsm.Config
	fail    string
	capStep int
}

type refConcretizer struct {
	p      *fsm.Protocol
	n      int
	strict bool
	cap    int
	vs     []symbolic.StateViolation
	out    []Verdict
}

func (c *refConcretizer) visit(nd *refLabelNode, depth int, f refConcFrontier) {
	if len(nd.ends) > 0 {
		var kinds fsm.KindSet
		if f.fail == "" {
			for _, cfg := range f.configs {
				kinds |= fsm.CheckKinds(c.p, cfg, c.strict)
			}
		}
		for _, i := range nd.ends {
			c.out[i] = c.judge(f, kinds, c.vs[i].Violations)
		}
	}
	for _, l := range nd.order {
		next := f
		if f.fail == "" {
			next = c.extend(f, depth, l)
		}
		c.visit(nd.next[l], depth+1, next)
	}
}

func (c *refConcretizer) extend(f refConcFrontier, i int, l symbolic.Label) refConcFrontier {
	next := refConcFrontier{capStep: f.capStep}
	seen := map[string]bool{}
	admit := func(cfg *fsm.Config, k string) {
		if seen[k] {
			return
		}
		if len(next.configs) >= c.cap {
			if next.capStep < 0 {
				next.capStep = i
			}
			return
		}
		seen[k] = true
		next.configs = append(next.configs, cfg)
	}
	type branch struct {
		c     *fsm.Config
		acted uint32
	}
	type branchKey struct {
		key   string
		acted uint32
	}
	for _, cur := range f.configs {
		work := []branch{{c: cur, acted: 0}}
		stepSeen := map[branchKey]bool{}
		for len(work) > 0 {
			b := work[0]
			work = work[1:]
			for j := 0; j < c.n; j++ {
				if b.acted&(1<<j) != 0 {
					continue
				}
				if l.Origin != "" && b.c.States[j] != l.Origin {
					continue
				}
				cfg := b.c.Clone()
				if _, err := fsm.Step(c.p, cfg, j, l.Op); err != nil {
					continue
				}
				enum.Canonicalize(cfg)
				acted := b.acted | 1<<j
				k := cfg.Key()
				if stepSeen[branchKey{k, acted}] {
					continue
				}
				stepSeen[branchKey{k, acted}] = true
				admit(cfg, k)
				work = append(work, branch{c: cfg, acted: acted})
			}
		}
	}
	if len(next.configs) == 0 {
		next.fail = fmt.Sprintf("path step %d (%s) has no concrete counterpart", i, l)
	}
	return next
}

func (c *refConcretizer) judge(f refConcFrontier, kinds fsm.KindSet, claimed []fsm.Violation) Verdict {
	if f.fail == "" {
		for _, v := range claimed {
			if kinds.Has(v.Kind) {
				return Verdict{Confirmed: true}
			}
		}
	}
	if f.capStep >= 0 {
		return Verdict{Note: fmt.Sprintf("frontier cap %d reached at step %d", c.cap, f.capStep)}
	}
	if f.fail != "" {
		return Verdict{Note: f.fail}
	}
	// The path may end one derivation short of the erroneous state when
	// the violation is already visible along the way; accept a violating
	// intermediate only at the endpoint to stay conservative.
	return Verdict{Note: "no concretization of the path endpoint violates a claimed invariant"}
}

// diffProtocol is a seeded random protocol with a random CleanShared set,
// so strict audits differ from default ones.
func diffProtocol(seed int64) (*fsm.Protocol, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	p := randproto.New(rng, 1+rng.Intn(4))
	for _, st := range p.Inv.ValidCopy {
		if rng.Intn(2) == 0 {
			p.Inv.CleanShared = append(p.Inv.CleanShared, st)
		}
	}
	return p, rng
}

// sameVerdicts fails t unless got and want agree witness by witness.
func sameVerdicts(t *testing.T, what string, got, want []Verdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s witness %d: got %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// forgeSymbolic returns altered copies of the witnesses of vs: a changed
// label origin, a changed operation, a dropped last step and an unclaimed
// kind, each applied to a seeded choice of witness.
func forgeSymbolic(rng *rand.Rand, p *fsm.Protocol, vs []symbolic.StateViolation) []symbolic.StateViolation {
	var out []symbolic.StateViolation
	for _, v := range vs {
		if len(v.Path) == 0 || rng.Intn(2) == 0 {
			continue
		}
		f := v
		f.Path = append([]symbolic.PathStep(nil), v.Path...)
		k := rng.Intn(len(f.Path))
		switch rng.Intn(4) {
		case 0:
			f.Path[k].Label.Origin = p.States[rng.Intn(len(p.States))]
		case 1:
			f.Path[k].Label.Op = p.Ops[rng.Intn(len(p.Ops))]
		case 2:
			f.Path = f.Path[:len(f.Path)-1]
		case 3:
			f.Violations = []fsm.Violation{{Kind: fsm.ViolationKind(1 + rng.Intn(4))}}
		}
		out = append(out, f)
	}
	return out
}

// forgeEnum returns altered copies of the witnesses of vs: a hop from
// another (possibly out-of-range) cache, a hop claiming another hop's
// key, another endpoint configuration and an unclaimed kind.
func forgeEnum(rng *rand.Rand, n int, vs []enum.Violation) []enum.Violation {
	var out []enum.Violation
	for i, v := range vs {
		if len(v.Path) == 0 || rng.Intn(2) == 0 {
			continue
		}
		f := v
		f.Path = append([]enum.PathStep(nil), v.Path...)
		k := rng.Intn(len(f.Path))
		other := vs[rng.Intn(len(vs))]
		switch rng.Intn(4) {
		case 0:
			f.Path[k].Cache = rng.Intn(n + 1)
		case 1:
			if len(other.Path) > 0 {
				f.Path[k].To = other.Path[rng.Intn(len(other.Path))].To
			}
		case 2:
			f.Config = vs[(i+1)%len(vs)].Config
		case 3:
			f.Violations = []fsm.Violation{{Kind: fsm.ViolationKind(1 + rng.Intn(4))}}
		}
		out = append(out, f)
	}
	return out
}

// sample keeps a seeded choice of at most k witnesses of vs, in their
// order. Verdicts do not depend on which other witnesses share an audit,
// so a sample keeps the test fast without weakening it.
func sample[V any](rng *rand.Rand, vs []V, k int) []V {
	if len(vs) <= k {
		return vs
	}
	out := make([]V, 0, k)
	for i, v := range vs {
		// Keep each remaining witness with probability need/left.
		if rng.Intn(len(vs)-i) < k-len(out) {
			out = append(out, v)
		}
	}
	return out
}

// TestSymbolicAuditMatchesReference audits the symbolic witnesses of
// seeded random protocols, in default and strict mode, genuine and
// forged, with the full frontier cap and with one small enough to
// truncate, and requires the reference's verdicts and notes throughout.
func TestSymbolicAuditMatchesReference(t *testing.T) {
	ctx := context.Background()
	runs := 0
	for seed := int64(0); seed < 24; seed++ {
		p, rng := diffProtocol(seed)
		eng, err := symbolic.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, strict := range []bool{false, true} {
			res, err := eng.ExpandContext(ctx, symbolic.Options{Strict: strict})
			if err != nil {
				t.Fatal(err)
			}
			vs := sample(rng, res.Violations, 16)
			vs = append(vs, forgeSymbolic(rng, p, vs)...)
			if len(vs) == 0 {
				continue
			}
			runs++
			for _, capN := range []int{auditFrontierCap, 3} {
				what := fmt.Sprintf("seed %d strict=%v cap=%d", seed, strict, capN)
				sameVerdicts(t, what, confirmSymbolic(p, strict, vs, capN), refConfirmSymbolic(p, strict, vs, capN))
			}
			if strict {
				sameVerdicts(t, fmt.Sprintf("seed %d strict audited default", seed),
					ConfirmSymbolicWitnesses(p, false, vs), refConfirmSymbolicWitnesses(p, false, vs))
			}
		}
	}
	if runs < 20 {
		t.Fatalf("only %d runs had witnesses", runs)
	}
}

// TestEnumAuditMatchesReference is the enumeration counterpart: strict
// and counting runs at n = 2..4, genuine and forged witnesses, and strict
// paths audited under counting keys.
func TestEnumAuditMatchesReference(t *testing.T) {
	ctx := context.Background()
	runs := 0
	for seed := int64(0); seed < 16; seed++ {
		p, rng := diffProtocol(seed)
		for n := 2; n <= 4; n++ {
			for _, mode := range []string{enum.ModeStrict, enum.ModeCounting} {
				strict := rng.Intn(2) == 0
				opts := enum.Options{Strict: strict}
				var res *enum.Result
				var err error
				if mode == enum.ModeStrict {
					res, err = enum.ExhaustiveContext(ctx, p, n, opts)
				} else {
					res, err = enum.CountingContext(ctx, p, n, opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				vs := sample(rng, res.Violations, 48)
				vs = append(vs, forgeEnum(rng, n, vs)...)
				if len(vs) == 0 {
					continue
				}
				runs++
				what := fmt.Sprintf("seed %d n=%d %s strict=%v", seed, n, mode, strict)
				sameVerdicts(t, what, ConfirmEnumWitnesses(p, n, mode, strict, vs), refConfirmEnumWitnesses(p, n, mode, strict, vs))
				if mode == enum.ModeStrict {
					sameVerdicts(t, what+" audited counting",
						ConfirmEnumWitnesses(p, n, enum.ModeCounting, !strict, vs),
						refConfirmEnumWitnesses(p, n, enum.ModeCounting, !strict, vs))
				}
			}
		}
	}
	if runs < 40 {
		t.Fatalf("only %d runs had witnesses", runs)
	}
}

// TestExtendMatchesReference compares single path steps: from the initial
// configuration of seeded random protocols, both concretizers follow the
// same label walk, and every frontier must hold the same configurations
// in the same admission order, with the same cap step and failure. It
// runs a cap small enough to truncate, so a change of admission order or
// of the closure's dedup shows here even where no verdict moves.
func TestExtendMatchesReference(t *testing.T) {
	keys := func(cs []*fsm.Config) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = c.Key()
		}
		return out
	}
	steps := 0
	for seed := int64(0); seed < 12; seed++ {
		p, rng := diffProtocol(seed)
		var labels []symbolic.Label
		for _, op := range p.Ops {
			labels = append(labels, symbolic.Label{Op: op})
			for _, st := range p.States {
				labels = append(labels, symbolic.Label{Op: op, Origin: st})
			}
		}
		for n := 2; n <= auditMaxN; n++ {
			for _, capN := range []int{4, 256} {
				s := newAuditScratch()
				c := &concretizer{p: p, n: n, cap: capN, s: s}
				rc := &refConcretizer{p: p, n: n, cap: capN}
				init := fsm.NewConfig(p, n)
				enum.Canonicalize(init)
				f := concFrontier{configs: []*fsm.Config{init}, capStep: -1}
				rf := refConcFrontier{configs: []*fsm.Config{init}, capStep: -1}
				walk := rand.New(rand.NewSource(rng.Int63()))
				for depth := 0; depth < 6; depth++ {
					// Follow a label with a concrete counterpart when
					// there is one.
					var l symbolic.Label
					var rnext refConcFrontier
					for _, k := range walk.Perm(len(labels)) {
						l = labels[k]
						if rnext = rc.extend(rf, depth, l); rnext.fail == "" {
							break
						}
					}
					next := c.extend(f, depth, l)
					what := fmt.Sprintf("seed %d n=%d cap=%d step %d (%s)", seed, n, capN, depth, l)
					if next.fail != rnext.fail || next.capStep != rnext.capStep {
						t.Fatalf("%s: fail %q cap step %d, reference %q %d", what, next.fail, next.capStep, rnext.fail, rnext.capStep)
					}
					got, want := keys(next.configs), keys(rnext.configs)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: frontier\n  %v\nreference\n  %v", what, got, want)
					}
					steps++
					if next.fail != "" {
						break
					}
					f, rf = next, rnext
				}
			}
		}
	}
	if steps < 500 {
		t.Fatalf("only %d steps compared", steps)
	}
}
