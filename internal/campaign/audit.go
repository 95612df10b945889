// Witness auditing: every violation a campaign reports is re-validated
// independently of the engine that found it, by replaying its witness path
// through the concrete FSM semantics of internal/fsm and re-checking the
// Definition 3 data-consistency invariants with fsm.CheckKinds (the
// kinds-only form of fsm.CheckConfig). The audit deliberately avoids the
// engines' fast paths (compiled tables, packed keys, containment pruning):
// it trusts only fsm.Step, enum.Canonicalize and the legacy string key
// rendering, so a bug in an engine's bookkeeping cannot confirm its own
// spurious witness. A run's witnesses are audited together, replaying
// each distinct prefix once (see ConfirmEnumWitnesses and
// ConfirmSymbolicWitnesses). The bookkeeping around those replays (which
// configurations were seen, where they are stored) is the audit's own:
// fingerprints, sets and arenas defined here, never an engine's.
package campaign

import (
	"fmt"
	"sync"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/symbolic"
)

// auditMaxN bounds the cache counts the symbolic auditor tries when
// concretizing a class-level witness path.
const auditMaxN = 5

// auditFrontierCap bounds the guided search frontier. A path whose
// concretizations exceed it keeps only the first auditFrontierCap
// configurations per step; if the audit then fails, its note names the cap
// and the step where it truncated, rather than blaming the path.
const auditFrontierCap = 20000

// Verdict is the audit outcome of one witness.
type Verdict struct {
	Confirmed bool
	// Note explains a failed confirmation; it is empty when Confirmed.
	Note string
}

// ConfirmEnumWitness independently confirms one enumeration violation by
// replaying its witness path step-by-step through the concrete FSM
// semantics for n caches under the given equivalence mode (enum.ModeStrict
// or enum.ModeCounting). It is the one-witness form of
// ConfirmEnumWitnesses. A false return carries a note explaining the
// failed confirmation.
func ConfirmEnumWitness(p *fsm.Protocol, n int, mode string, strict bool, v enum.Violation) (confirmed bool, note string) {
	vd := ConfirmEnumWitnesses(p, n, mode, strict, []enum.Violation{v})[0]
	return vd.Confirmed, vd.Note
}

// ConfirmSymbolicWitness independently confirms one symbolic violation by
// concretizing its class-level witness path at small cache counts (n =
// 2..5). It is the one-witness form of ConfirmSymbolicWitnesses.
func ConfirmSymbolicWitness(p *fsm.Protocol, strict bool, v symbolic.StateViolation) (confirmed bool, note string) {
	vd := ConfirmSymbolicWitnesses(p, strict, []symbolic.StateViolation{v})[0]
	return vd.Confirmed, vd.Note
}

// auditEnum audits every enumeration witness of a run (see
// ConfirmEnumWitnesses).
func (r *runner) auditEnum(res *enum.Result) []WitnessRecord {
	vs := res.Violations
	out := make([]WitnessRecord, len(vs))
	for i, v := range vs {
		out[i] = WitnessRecord{State: v.Config.Key(), Kinds: kindNames(v.Violations), PathLen: len(v.Path)}
	}
	if len(vs) == 0 || r.policy.NoAudit {
		return out
	}
	sp := r.orun.Phase(obs.PhaseAudit)
	defer sp.End()
	for i, vd := range ConfirmEnumWitnesses(r.proto, res.N, res.Mode, r.job.Strict, vs) {
		out[i].Confirmed, out[i].AuditNote = vd.Confirmed, vd.Note
	}
	return out
}

// auditSymbolic audits every symbolic witness of a run (see
// ConfirmSymbolicWitnesses).
func (r *runner) auditSymbolic(vs []symbolic.StateViolation) []WitnessRecord {
	out := make([]WitnessRecord, len(vs))
	for i, v := range vs {
		out[i] = WitnessRecord{State: v.State.Key(), Kinds: kindNames(v.Violations), PathLen: len(v.Path)}
	}
	if len(vs) == 0 || r.policy.NoAudit {
		return out
	}
	sp := r.orun.Phase(obs.PhaseAudit)
	defer sp.End()
	for i, vd := range ConfirmSymbolicWitnesses(r.proto, r.job.Strict, vs) {
		out[i].Confirmed, out[i].AuditNote = vd.Confirmed, vd.Note
	}
	return out
}

// ConfirmEnumWitnesses independently confirms every violation of one
// enumeration run (n caches, equivalence mode enum.ModeStrict or
// enum.ModeCounting) by replaying its witness path through fsm.Step. A
// witness is confirmed when every hop's replayed canonical key equals the
// one it claims and the final configuration violates every invariant the
// engine claimed it does. The verification service and the campaign
// runner call it so no violation verdict enters a result cache without an
// engine-independent confirmation.
//
// Witnesses of one run share long prefixes, so the replay walks the trie
// of distinct (cache, operation) prefixes: each prefix is stepped once,
// from fsm.NewConfig, and every witness through it then compares the
// replayed key against its own claimed key. Only the engine-independent
// replay is shared, never a claim, so a witness's verdict and note are
// exactly those of auditing it alone.
func ConfirmEnumWitnesses(p *fsm.Protocol, n int, mode string, strict bool, vs []enum.Violation) []Verdict {
	r := &enumReplay{p: p, n: n, mode: mode, strict: strict}
	init := fsm.NewConfig(p, n)
	enum.Canonicalize(init)
	root := &replayNode{cfg: init}
	key, err := r.render(init)
	if err != nil {
		root.fail = err.Error() // reported only for an empty path
	}
	root.key = key
	out := make([]Verdict, len(vs))
	for i, v := range vs {
		out[i] = r.witness(root, v)
	}
	return out
}

// enumReplay is one enum audit: its run parameters, and a scratch
// configuration and key buffer that every witness's endpoint check
// reuses.
type enumReplay struct {
	p       *fsm.Protocol
	n       int
	mode    string
	strict  bool
	claimed fsm.Config
	buf     []byte
}

// render returns cfg's canonical key, rendered through the reused buffer.
func (r *enumReplay) render(cfg *fsm.Config) (string, error) {
	var err error
	r.buf, err = enum.AppendCanonicalKey(r.buf[:0], cfg, r.mode)
	return string(r.buf), err
}

// replayNode is one distinct witness prefix of an enum audit: the
// canonicalized configuration its hops reach from the initial state, that
// configuration's canonical key, and the failure that ended the replay
// here, if any.
type replayNode struct {
	cfg   *fsm.Config
	key   string
	fail  string
	kinds fsm.KindSet
	check bool // kinds is computed
	next  map[replayHop]*replayNode
}

// replayHop labels a trie edge: one witness step's cache and operation.
type replayHop struct {
	cache int
	op    fsm.Op
}

// child returns the prefix nd extended by hop, stepping it on first use.
// The hop is the witness's step i; the failure notes name it so, which is
// the same for every witness sharing the prefix.
func (r *enumReplay) child(nd *replayNode, i int, h replayHop) *replayNode {
	if c, ok := nd.next[h]; ok {
		return c
	}
	c := &replayNode{}
	switch {
	case h.cache < 0 || h.cache >= r.n:
		c.fail = fmt.Sprintf("step %d: cache %d out of range for n=%d", i, h.cache, r.n)
	default:
		cfg := nd.cfg.Clone()
		if _, err := fsm.Step(r.p, cfg, h.cache, h.op); err != nil {
			c.fail = fmt.Sprintf("step %d (%d%s): %v", i, h.cache, h.op, err)
			break
		}
		enum.Canonicalize(cfg)
		key, err := r.render(cfg)
		if err != nil {
			c.fail = err.Error()
			break
		}
		c.cfg, c.key = cfg, key
	}
	if nd.next == nil {
		nd.next = make(map[replayHop]*replayNode)
	}
	nd.next[h] = c
	return c
}

// witness is the concrete replay at the heart of the enum audit, walking
// one witness down the shared prefix trie from root.
func (r *enumReplay) witness(root *replayNode, v enum.Violation) Verdict {
	nd := root
	for i, step := range v.Path {
		nd = r.child(nd, i, replayHop{step.Cache, step.Op})
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
	r.claimed.CopyFrom(v.Config)
	enum.Canonicalize(&r.claimed)
	var err error
	if r.buf, err = enum.AppendCanonicalKey(r.buf[:0], &r.claimed, r.mode); err != nil {
		return Verdict{Note: err.Error()}
	}
	if nd.key != string(r.buf) {
		return Verdict{Note: fmt.Sprintf("replay endpoint %q is not the claimed state %q", nd.key, r.buf)}
	}
	// …and must independently violate every claimed invariant.
	if !nd.check {
		nd.kinds, nd.check = fsm.CheckKinds(r.p, nd.cfg, r.strict), true
	}
	for _, claimedViol := range v.Violations {
		if !nd.kinds.Has(claimedViol.Kind) {
			return Verdict{Note: fmt.Sprintf("replayed state does not violate claimed invariant %s", claimedViol.Kind)}
		}
	}
	return Verdict{Confirmed: true}
}

// ConfirmSymbolicWitnesses independently confirms every violation of one
// symbolic run by concretizing its class-level witness path: a guided
// breadth-limited search follows the path's labels through the concrete
// FSM at cache counts n = 2..auditMaxN until some concrete run reaches a
// state violating a claimed invariant. A witness is confirmed at the
// first n that works; an unconfirmed one carries the note of n =
// auditMaxN.
//
// The search frontier after a path step depends only on n and the labels
// up to that step, so the audit builds the trie of distinct label prefixes
// once and, at each n, concretizes the subtrees that still hold an
// unconfirmed witness, depth first, checking every such witness ending at
// a prefix against that prefix's frontier. Each frontier is still built by
// fsm.Step from fsm.NewConfig, and a witness is judged only on its own
// labels and claimed kinds, so sharing changes no verdict or note.
func ConfirmSymbolicWitnesses(p *fsm.Protocol, strict bool, vs []symbolic.StateViolation) []Verdict {
	return confirmSymbolic(p, strict, vs, auditFrontierCap)
}

// confirmSymbolic is ConfirmSymbolicWitnesses with the frontier cap as a
// parameter, so tests can exercise truncation on small protocols.
func confirmSymbolic(p *fsm.Protocol, strict bool, vs []symbolic.StateViolation, frontierCap int) []Verdict {
	out := make([]Verdict, len(vs))
	root := &labelNode{}
	for i, v := range vs {
		nd := root
		nd.open++
		for _, step := range v.Path {
			nd = nd.child(step.Label)
			nd.open++
		}
		nd.ends = append(nd.ends, i)
	}
	s := auditScratchPool.Get().(*auditScratch)
	defer auditScratchPool.Put(s)
	clear(s.fp.ids)
	for n := 2; n <= auditMaxN && root.open > 0; n++ {
		c := &concretizer{p: p, n: n, strict: strict, cap: frontierCap, vs: vs, out: out, s: s}
		init := fsm.NewConfig(p, n)
		enum.Canonicalize(init)
		c.visit(root, 0, concFrontier{configs: []*fsm.Config{init}, capStep: -1})
	}
	// Every n judges every still-open witness afresh, so a witness left
	// open carries the note of the last n tried, which is auditMaxN.
	for i := range out {
		if !out[i].Confirmed {
			out[i].Note = fmt.Sprintf("n=%d: %s", auditMaxN, out[i].Note)
		}
	}
	return out
}

// labelNode is one distinct label prefix of the symbolic audit trie; ends
// lists the witnesses whose path is exactly this prefix, and open counts
// the unconfirmed witnesses whose path passes through or ends at it.
type labelNode struct {
	next  map[symbolic.Label]*labelNode
	order []symbolic.Label
	ends  []int
	open  int
}

func (nd *labelNode) child(l symbolic.Label) *labelNode {
	if c, ok := nd.next[l]; ok {
		return c
	}
	if nd.next == nil {
		nd.next = make(map[symbolic.Label]*labelNode)
	}
	c := &labelNode{}
	nd.next[l] = c
	nd.order = append(nd.order, l)
	return c
}

// concFrontier is the concretization frontier of one label prefix:
// every admitted configuration, the note that ends the search here when
// the prefix has no concrete counterpart, and the first step at which the
// frontier cap truncated it (-1 if never).
type concFrontier struct {
	configs []*fsm.Config
	fail    string
	capStep int
}

// concretizer runs one cache count's search over the label trie, writing
// each ending witness's outcome into out.
type concretizer struct {
	p      *fsm.Protocol
	n      int
	strict bool
	cap    int
	vs     []symbolic.StateViolation
	out    []Verdict
	s      *auditScratch
}

// visit judges the unconfirmed witnesses ending at nd, the label prefix
// of the given depth, against its frontier f, then extends f by each child
// label whose subtree holds an unconfirmed witness. It returns how many
// witnesses of nd's subtree it confirmed. Only the frontiers along the
// current trie path are live.
func (c *concretizer) visit(nd *labelNode, depth int, f concFrontier) int {
	confirmed := 0
	var kinds fsm.KindSet
	checked := false
	for _, i := range nd.ends {
		if c.out[i].Confirmed {
			continue
		}
		if !checked && f.fail == "" {
			for _, cfg := range f.configs {
				kinds |= fsm.CheckKinds(c.p, cfg, c.strict)
			}
		}
		checked = true
		c.out[i] = c.judge(f, kinds, c.vs[i].Violations)
		if c.out[i].Confirmed {
			confirmed++
		}
	}
	for _, l := range nd.order {
		child := nd.next[l]
		if child.open == 0 {
			continue
		}
		next := f
		if f.fail == "" {
			next = c.extend(f, depth, l)
		}
		confirmed += c.visit(child, depth+1, next)
	}
	nd.open -= confirmed
	return confirmed
}

// branch is one entry of extend's work queue: a configuration and the
// caches of the originating class that have already acted on it.
type branch struct {
	c     *fsm.Config
	acted uint32
}

// extend follows path step i, labelled l, from frontier f. Each label
// constrains which caches may act (those whose current state is the
// label's originating class); the step applies the operation to the
// class's members one after another, keeping every intermediate as a
// candidate, mirroring rule 4 of Section 3.2.3.
//
// One symbolic transition can stand for several concrete applications of
// its operation: the class repetition operators absorb any number of
// caches (a single R_Invalid edge covers configurations with 2, 3, …
// sharers), and the explicit N-step labels of rule 4 make the
// multi-application reading first-class. So each path step closes the
// frontier under 1..n applications of the operation by distinct caches of
// the originating class, admitting every intermediate. The closure only
// guides the search — soundness comes from every admitted configuration
// being built by real fsm.Step calls from the initial state, plus the
// endpoint invariant check.
//
// Admission is first come, first served in a fixed order (frontier order,
// then the breadth-first closure of each configuration, caches in index
// order), so the frontier cap keeps the same configurations however the
// frontier is stored. Every candidate is stepped in the scratch
// configuration; only one that is new for its (configuration, acted)
// pair moves into depth i+1's arena.
func (c *concretizer) extend(f concFrontier, i int, l symbolic.Label) concFrontier {
	s := c.s
	a := s.arena(i + 1)
	next := concFrontier{configs: a.frontier[:0], capStep: f.capStep}
	clear(s.seen)
	work := s.work[:0]
	for _, cur := range f.configs {
		clear(s.stepSeen)
		work = append(work[:0], branch{c: cur})
		for head := 0; head < len(work); head++ {
			b := work[head]
			for j := 0; j < c.n; j++ {
				if b.acted&(1<<j) != 0 {
					continue
				}
				if l.Origin != "" && b.c.States[j] != l.Origin {
					continue
				}
				s.cand.CopyFrom(b.c)
				if _, err := fsm.Step(c.p, s.cand, j, l.Op); err != nil {
					continue
				}
				enum.Canonicalize(s.cand)
				acted := b.acted | 1<<j
				fp := s.fp.of(s.cand)
				step := fp<<auditMaxN | uint64(acted)
				if _, ok := s.stepSeen[step]; ok {
					continue
				}
				s.stepSeen[step] = struct{}{}
				var cfg *fsm.Config
				cfg, s.cand = a.keep(s.cand)
				if _, dup := s.seen[fp]; !dup {
					switch {
					case len(next.configs) < c.cap:
						s.seen[fp] = struct{}{}
						next.configs = append(next.configs, cfg)
					case next.capStep < 0:
						next.capStep = i
					}
				}
				work = append(work, branch{c: cfg, acted: acted})
			}
		}
	}
	s.work = work
	a.frontier = next.configs
	if len(next.configs) == 0 {
		next.fail = fmt.Sprintf("path step %d (%s) has no concrete counterpart", i, l)
	}
	return next
}

// judge decides one witness ending at a prefix whose frontier is f and
// whose configurations violate kinds: it is confirmed when some
// configuration violates one of its claimed invariants.
func (c *concretizer) judge(f concFrontier, kinds fsm.KindSet, claimed []fsm.Violation) Verdict {
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

// auditScratchPool holds the symbolic audit's working memory between
// calls. Each call takes its own scratch, so concurrent audits (the
// service's workers) never share one.
var auditScratchPool = sync.Pool{New: func() any { return newAuditScratch() }}

func newAuditScratch() *auditScratch {
	return &auditScratch{
		cand:     &fsm.Config{},
		seen:     map[uint64]struct{}{},
		stepSeen: map[uint64]struct{}{},
		fp:       fingerprinter{ids: map[string]uint64{}},
	}
}

// auditScratch is the reusable working memory of one symbolic audit, kept
// across its cache counts n = 2..auditMaxN: one arena per trie depth, the
// candidate configuration every step is tried in, extend's work queue and
// its two dedup sets, and the fingerprinter that feeds them.
type auditScratch struct {
	depths   []*depthArena
	cand     *fsm.Config
	work     []branch
	seen     map[uint64]struct{} // admitted configurations of the frontier being built
	stepSeen map[uint64]struct{} // (configuration, acted) pairs of one closure
	fp       fingerprinter
}

// arena returns depth d's arena, emptied. Only the frontiers along the
// trie path being visited are live, so when depth d is extended again
// everything its arena held belongs to a finished subtree.
func (s *auditScratch) arena(d int) *depthArena {
	for len(s.depths) <= d {
		s.depths = append(s.depths, &depthArena{})
	}
	a := s.depths[d]
	a.used = 0
	return a
}

// depthArena holds the configurations one trie depth's extension kept:
// its frontier and every other closure intermediate. The first used
// configs are live; the rest are spares from earlier extensions.
type depthArena struct {
	configs  []*fsm.Config
	used     int
	frontier []*fsm.Config
	slab     configSlab
}

// keep moves cand into the arena and returns it with the spare that
// replaces it as the scratch candidate.
func (a *depthArena) keep(cand *fsm.Config) (kept, spare *fsm.Config) {
	if a.used == len(a.configs) {
		a.configs = append(a.configs, a.slab.take())
	}
	spare = a.configs[a.used]
	a.configs[a.used] = cand
	a.used++
	return cand, spare
}

// configSlab hands out empty configurations with room for auditMaxN
// caches, carved with their state and version slices out of three
// allocations per 64 configurations. A scratch the pool dropped refills
// its arenas at that rate rather than three allocations a configuration.
type configSlab struct {
	free []fsm.Config
}

func (s *configSlab) take() *fsm.Config {
	if len(s.free) == 0 {
		const chunk = 64
		s.free = make([]fsm.Config, chunk)
		states := make([]fsm.State, chunk*auditMaxN)
		versions := make([]int64, chunk*auditMaxN)
		for k := range s.free {
			lo, hi := k*auditMaxN, (k+1)*auditMaxN
			s.free[k].States, s.free[k].Versions = states[lo:lo:hi], versions[lo:lo:hi]
		}
	}
	c := &s.free[0]
	s.free = s.free[1:]
	return c
}

// fingerprinter numbers the canonicalized configurations of one audit by
// first appearance, an exact audit-local identity, so the dedup sets hold
// integers. Each configuration's Key is rendered into a reused buffer; a
// Key already numbered is looked up without allocating.
type fingerprinter struct {
	buf []byte
	ids map[string]uint64
}

// of returns cfg's fingerprint.
func (f *fingerprinter) of(cfg *fsm.Config) uint64 {
	f.buf = cfg.AppendKey(f.buf[:0])
	if id, ok := f.ids[string(f.buf)]; ok {
		return id
	}
	id := uint64(len(f.ids))
	f.ids[string(f.buf)] = id
	return id
}

// kindNames renders violation kinds deterministically.
func kindNames(vs []fsm.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Kind.String()
	}
	return out
}
