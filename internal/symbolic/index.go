package symbolic

// The containment index buckets composite states by structural signature —
// copy-count attribute plus class-occupancy pattern (ops.occ) — so
// the worklist's containment queries (Figure 3's "is the new state
// contained in W or H" and "remove every state the new state contains")
// touch only the buckets whose signature is compatible instead of scanning
// the whole list:
//
//   - t Contains s forces s's occupied classes to be occupied in t
//     (1 ≤ 1,+,*; + ≤ +,*; * ≤ *) and t's definite classes (1, +) to be
//     occupied in s, and the attributes to be equal. So for
//     containedInAny(s) only buckets with sig.occ ⊇ s.occ() qualify, and
//     for removeContained(s) only buckets with s's definite classes
//     ⊆ sig.occ ⊆ s.occ().
//
// The number of distinct signatures is tiny compared to the number of
// essential states as per-cache state counts grow (BenchmarkScalingSynthetic:
// one signature can hold many context/attr variants), which is what keeps
// the prefilter effective. The buckets live in a slice, which the queries
// scan; a map only locates a signature's bucket for add and remove. A
// bucket that empties keeps its place, and its slice's capacity, for the
// next state of that signature.
//
// The ordered work/hist slices of the expander remain the source of truth
// for iteration order; the index only answers membership and collects
// removal victims.

// csig is the bucketing signature.
type csig struct {
	attr Count
	occ  uint64
}

type bucket struct {
	csig
	states []*CState
}

// cindex is a containment index over one of the expander's state lists.
type cindex struct {
	buckets []bucket
	at      map[csig]int
}

func newCIndex() *cindex {
	return &cindex{at: make(map[csig]int)}
}

func (ix *cindex) add(s *CState) {
	sig := csig{attr: s.attr, occ: s.occ()}
	i, ok := ix.at[sig]
	if !ok {
		i = len(ix.buckets)
		ix.at[sig] = i
		ix.buckets = append(ix.buckets, bucket{csig: sig})
	}
	ix.buckets[i].states = append(ix.buckets[i].states, s)
}

// remove deletes one state (by pointer identity) from its bucket.
func (ix *cindex) remove(s *CState) {
	if i, ok := ix.at[csig{attr: s.attr, occ: s.occ()}]; ok {
		ix.buckets[i].states = removePtr(ix.buckets[i].states, s)
	}
}

func removePtr(list []*CState, s *CState) []*CState {
	for i, t := range list {
		if t == s {
			last := len(list) - 1
			list[i] = list[last]
			list[last] = nil
			return list[:last]
		}
	}
	return list
}

// containedInAny reports whether any indexed state contains s.
func (ix *cindex) containedInAny(s *CState) bool {
	for i := range ix.buckets {
		b := &ix.buckets[i]
		if b.attr == s.attr && s.occ()&^b.occ == 0 && containedInAny(s, b.states) {
			return true
		}
	}
	return false
}

// collectContained appends to out every indexed state that s contains.
func (ix *cindex) collectContained(s *CState, out []*CState) []*CState {
	def, occ := s.one|s.plus, s.occ()
	for i := range ix.buckets {
		b := &ix.buckets[i]
		if b.attr != s.attr || b.occ&^occ != 0 || def&^b.occ != 0 {
			continue
		}
		for _, t := range b.states {
			if Contains(s, t) {
				out = append(out, t)
			}
		}
	}
	return out
}
