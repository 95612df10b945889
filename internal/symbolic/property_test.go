package symbolic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/protocols"
)

// genState draws a random feasible Illinois composite state.
func genState(e *Engine, rng *rand.Rand) *CState {
	for {
		n := e.Protocol().NumStates()
		reps := make([]Rep, n)
		data := make([]Data, n)
		for i := 0; i < n; i++ {
			reps[i] = Rep(rng.Intn(4))
			data[i] = Data(rng.Intn(3))
		}
		attr := CountNull
		if e.Protocol().Characteristic == fsm.CharSharing {
			attr = Count(1 + rng.Intn(3))
		}
		mdata := Data(1 + rng.Intn(2))
		if s, ok := e.MakeState(reps, data, attr, mdata); ok {
			return s
		}
	}
}

// TestPropertyCoversIsPartialOrder checks reflexivity, antisymmetry (up to
// key equality) and transitivity of structural covering over random states.
func TestPropertyCoversIsPartialOrder(t *testing.T) {
	e := illinoisEngine(t)
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		a, b, c := genState(e, r), genState(e, r), genState(e, r)
		if !Covers(a, a) {
			t.Logf("not reflexive: %v", a.Key())
			return false
		}
		if Covers(a, b) && Covers(b, a) {
			for i := 0; i < a.NumClasses(); i++ {
				if a.Rep(i) != b.Rep(i) {
					t.Logf("not antisymmetric: %v vs %v", a.Key(), b.Key())
					return false
				}
			}
		}
		if Covers(a, b) && Covers(b, c) && !Covers(a, c) {
			t.Logf("not transitive")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyContainsImpliesCovers: containment strengthens covering.
func TestPropertyContainsImpliesCovers(t *testing.T) {
	e := illinoisEngine(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genState(e, r), genState(e, r)
		if Contains(a, b) && !Covers(a, b) {
			return false
		}
		if Contains(a, b) && (a.Attr() != b.Attr() || !b.MData().LE(a.MData())) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// weaken returns a state that contains s, obtained by raising one or more
// repetition operators along the information order while keeping the
// characteristic value and context variables; nil when no weakening exists.
func weaken(e *Engine, s *CState, rng *rand.Rand) *CState {
	n := s.NumClasses()
	reps := make([]Rep, n)
	data := make([]Data, n)
	for i := 0; i < n; i++ {
		reps[i] = s.Rep(i)
		data[i] = s.CData(i)
	}
	changed := false
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		switch reps[i] {
		case ROne, RPlus:
			reps[i] = RStar
			changed = true
		case RZero:
			reps[i] = RStar
			if e.valid[i] {
				data[i] = DFresh
			}
			changed = true
		}
	}
	if !changed {
		return nil
	}
	w, ok := e.MakeState(reps, data, s.Attr(), s.MData())
	if !ok || !Contains(w, s) {
		return nil
	}
	return w
}

// TestPropertyExpansionMonotonic is the executable Lemma 2 / Corollary 2:
// if S1 ⊆ S2, every successor of S1 is contained in some successor of S2.
func TestPropertyExpansionMonotonic(t *testing.T) {
	for _, p := range protocols.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			e, err := NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			// Use reachable states (from the expansion's own visit log) as
			// S1 candidates: monotonicity on the reachable fragment is what
			// the pruning relies on.
			res := e.Expand(Options{RecordLog: true})
			var pool []*CState
			seen := map[string]bool{}
			for _, v := range res.Log {
				if !seen[v.To.Key()] {
					seen[v.To.Key()] = true
					pool = append(pool, v.To)
				}
			}
			checked := 0
			for _, s1 := range pool {
				for try := 0; try < 4; try++ {
					s2 := weaken(e, s1, rng)
					if s2 == nil {
						continue
					}
					checked++
					succs1, _ := e.Successors(s1)
					succs2, _ := e.Successors(s2)
					for _, su1 := range succs1 {
						covered := Contains(s2, su1.State)
						for _, su2 := range succs2 {
							if Contains(su2.State, su1.State) {
								covered = true
								break
							}
						}
						if !covered {
							t.Fatalf("monotonicity violated:\n  S1 = %s %v\n  S2 = %s %v\n  succ(S1) %s [%s] uncovered",
								s1.StructureString(p), s1.Attr(),
								s2.StructureString(p), s2.Attr(),
								su1.State.StructureString(p), su1.Label)
						}
					}
				}
			}
			if checked == 0 {
				t.Skip("no weakenable reachable states")
			}
		})
	}
}

// TestPropertyAbstractionSimulation is the executable Lemma 1/Theorem 1 for
// the concrete semantics: for a reachable concrete configuration c and any
// applicable event, α(step(c)) is covered by a symbolic successor of α(c)
// (or by α(c) itself when the event is a concrete no-op).
func TestPropertyAbstractionSimulation(t *testing.T) {
	ops := []fsm.Op{fsm.OpRead, fsm.OpWrite, fsm.OpReplace}
	for _, p := range protocols.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			e, err := NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for _, n := range []int{2, 3, 4} {
				c := fsm.NewConfig(p, n)
				enum.Canonicalize(c)
				for step := 0; step < 400; step++ {
					i := rng.Intn(n)
					op := ops[rng.Intn(len(ops))]
					before, err := e.Abstract(c)
					if err != nil {
						t.Fatal(err)
					}
					res, err := fsm.Step(p, c, i, op)
					if err != nil {
						t.Fatalf("n=%d step %d: %v", n, step, err)
					}
					enum.Canonicalize(c)
					after, err := e.Abstract(c)
					if err != nil {
						t.Fatal(err)
					}
					if res.Rule == nil {
						if after.Key() != before.Key() {
							t.Fatalf("no-op changed the abstraction")
						}
						continue
					}
					succs, _ := e.Successors(before)
					covered := false
					for _, su := range succs {
						if Contains(su.State, after) {
							covered = true
							break
						}
					}
					if !covered {
						t.Fatalf("n=%d: α(step(c)) = %s %v not covered by successors of %s %v under %s_%s",
							n, after.StructureString(p), after.Attr(),
							before.StructureString(p), before.Attr(), op, c.States[i])
					}
				}
			}
		})
	}
}

// TestPropertyNormalizeIdempotent: normalizing a normalized state is a
// fixpoint.
func TestPropertyNormalizeIdempotent(t *testing.T) {
	e := illinoisEngine(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := genState(e, r)
		reps := make([]Rep, s.NumClasses())
		data := make([]Data, s.NumClasses())
		for i := range reps {
			reps[i] = s.Rep(i)
			data[i] = s.CData(i)
		}
		again, ok := e.MakeState(reps, data, s.Attr(), s.MData())
		return ok && again.Key() == s.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAbstractExactness: abstracting a concrete configuration gives
// a state whose class operators match the exact cache counts.
func TestPropertyAbstractExactness(t *testing.T) {
	p := protocols.Illinois()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		c := fsm.NewConfig(p, n)
		// Random walk to a reachable configuration.
		ops := []fsm.Op{fsm.OpRead, fsm.OpWrite, fsm.OpReplace}
		for k := 0; k < 30; k++ {
			if _, err := fsm.Step(p, c, r.Intn(n), ops[r.Intn(3)]); err != nil {
				return false
			}
		}
		enum.Canonicalize(c)
		a, err := e.Abstract(c)
		if err != nil {
			return false
		}
		counts := map[fsm.State]int{}
		for _, s := range c.States {
			counts[s]++
		}
		for i, st := range p.States {
			want := RZero
			switch {
			case counts[st] == 1:
				want = ROne
			case counts[st] >= 2:
				want = RPlus
			}
			if a.Rep(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
