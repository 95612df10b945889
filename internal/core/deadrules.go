package core

import "sort"

// DeadRules returns the names of protocol rules that can never fire in any
// reachable global state — a design-review lint the symbolic expansion
// enables: a rule that no essential state exercises is either dead weight
// or evidence that the designer's mental model of reachability is wrong
// (e.g. a "read miss with two dirty copies" path).
//
// The analysis expands every essential state one step and collects the
// rules used; by Theorem 1 the essential states cover all reachable states,
// and by the monotonicity lemma every rule firing in a covered state also
// fires in the covering one, so the collected set is exactly the live set.
func DeadRules(rep *Report) []string {
	p := rep.Protocol
	live := make(map[string]bool, len(p.Rules))
	for _, es := range rep.Symbolic.Essential {
		succs, _ := rep.engine.Successors(es)
		for _, su := range succs {
			live[su.Rule.Name] = true
		}
	}
	var dead []string
	for i := range p.Rules {
		if !live[p.Rules[i].Name] {
			dead = append(dead, p.Rules[i].Name)
		}
	}
	sort.Strings(dead)
	return dead
}
