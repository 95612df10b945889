package enum

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/fsm"
)

// CheckpointVersion is the format version of serialized checkpoints;
// Decode rejects other versions.
//
// Version history:
//   - 1: string-keyed engine state (pre packed keys).
//   - 2: the engines key states by packed Keys; checkpoints render them
//     back to the version-1 canonical strings on save (snapshots stay
//     human-debuggable JSON) but the accepted key grammar is validated on
//     resume, so version-1 files are rejected rather than reinterpreted.
//   - 3: rank-ordered state lists (compact visited set): Visited[i] is the
//     state admitted at rank i and Parents[i] its provenance, with the
//     parent referenced by rank instead of by key string. Version-2 files
//     stored Visited sorted and Parents as a key-to-key map, so they are
//     rejected rather than reinterpreted.
const CheckpointVersion = 3

// Checkpoint is a resumable snapshot of an enumeration run, taken at a
// level boundary: every state is either fully expanded (in
// Visited with its provenance in Parents) or waiting on the Frontier, so a
// resumed run reaches exactly the counts an uninterrupted run would. The
// JSON encoding is stable and deterministic (Visited in admission-rank
// order, Tuples sorted) so checkpoints can be diffed and tested
// byte-for-byte.
type Checkpoint struct {
	Version  int    `json:"version"`
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	// Mode is ModeStrict or ModeCounting; a resumed run re-selects the
	// interrupted run's equivalence from it.
	Mode   string `json:"mode"`
	Strict bool   `json:"strict"`
	Visits int    `json:"visits"`

	// Visited[i] is the canonical key of the state admitted at rank i;
	// Parents[i] is its provenance. A resumed run re-inserts the list in
	// order, reproducing the interrupted run's ranks exactly (spilled
	// states included, so it starts fully resident), and checks it against
	// a replay of Parents. Tuples, the sorted state-only tuples, is
	// rebuilt from that replay rather than read.
	Visited  []string      `json:"visited"`
	Tuples   []string      `json:"tuples"`
	Parents  []ParentState `json:"parents"`
	Frontier []ConfigState `json:"frontier"`

	Violations []ViolationState `json:"violations,omitempty"`
	SpecErrors []string         `json:"spec_errors,omitempty"`
}

// ConfigState is the serialized form of one concrete configuration.
type ConfigState struct {
	States   []string `json:"states"`
	Versions []int64  `json:"versions"`
	Mem      int64    `json:"mem"`
	Latest   int64    `json:"latest"`
}

// ParentState is one provenance record: how the state at its rank was
// first reached. Parent is the admission rank of the predecessor state
// (-1 for the initial state, whose Cache and Op are meaningless and
// omitted).
type ParentState struct {
	Parent int    `json:"parent"`
	Cache  int    `json:"cache,omitempty"`
	Op     string `json:"op,omitempty"`
}

// ViolationState is one recorded violation with its witness path.
type ViolationState struct {
	Config     ConfigState       `json:"config"`
	Violations []ViolationDetail `json:"violations"`
	Path       []PathState       `json:"path,omitempty"`
}

// ViolationDetail is one fsm.Violation.
type ViolationDetail struct {
	Kind   int    `json:"kind"`
	Detail string `json:"detail"`
}

// PathState is one witness path step.
type PathState struct {
	Cache int    `json:"cache"`
	Op    string `json:"op"`
	To    string `json:"to"`
}

func configState(c *fsm.Config) ConfigState {
	cs := ConfigState{
		States:   make([]string, len(c.States)),
		Versions: append([]int64(nil), c.Versions...),
		Mem:      c.MemVersion,
		Latest:   c.Latest,
	}
	for i, s := range c.States {
		cs.States[i] = string(s)
	}
	return cs
}

func (cs ConfigState) config() (*fsm.Config, error) {
	if len(cs.States) != len(cs.Versions) {
		return nil, fmt.Errorf("enum: checkpoint config has %d states but %d versions", len(cs.States), len(cs.Versions))
	}
	c := &fsm.Config{
		States:     make([]fsm.State, len(cs.States)),
		Versions:   append([]int64(nil), cs.Versions...),
		MemVersion: cs.Mem,
		Latest:     cs.Latest,
	}
	for i, s := range cs.States {
		c.States[i] = fsm.State(s)
	}
	return c, nil
}

// snapshot captures the run at a level boundary, where the frontier lists
// the admitted-but-unexpanded states. Pending witness paths are resolved
// first. The visited list and the tuple census are rendered from a replay
// of the provenance records, which covers an out-of-core run's spilled
// states without reading its spill files, so the snapshot is
// self-contained and resuming it needs no spill files.
func (b *bfs) snapshot() (*Checkpoint, error) {
	b.resolveWitnesses()
	cp := &Checkpoint{
		Version:  CheckpointVersion,
		Protocol: b.p.Name,
		N:        b.n,
		Mode:     b.mode,
		Strict:   b.opts.Strict,
		Visits:   b.res.Visits,
		Visited:  make([]string, b.visited.size()),
		Tuples:   make([]string, 0, b.tuples.size()),
		Parents:  make([]ParentState, len(b.parents)),
		Frontier: make([]ConfigState, len(b.frontier)),
	}
	tuples := make(map[Key]bool, b.tuples.size())
	if _, err := replay(context.Background(), b.kc, b.parents, func(r uint32, state *Key, key Key) error {
		cp.Visited[r] = b.kc.render(key)
		if tk := b.kc.tupleKey(state); !tuples[tk] {
			tuples[tk] = true
			cp.Tuples = append(cp.Tuples, b.kc.renderTuple(tk))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	sort.Strings(cp.Tuples)
	for i, rec := range b.parents {
		if rec.parent == noParent {
			cp.Parents[i] = ParentState{Parent: -1}
			continue
		}
		cp.Parents[i] = ParentState{
			Parent: int(rec.parent),
			Cache:  int(rec.cache),
			Op:     string(b.p.Ops[rec.op]),
		}
	}
	for i := range b.frontier {
		cp.Frontier[i] = configState(b.kc.config(&b.frontier[i]))
	}
	for _, v := range b.res.Violations {
		vs := ViolationState{Config: configState(v.Config)}
		for _, d := range v.Violations {
			vs.Violations = append(vs.Violations, ViolationDetail{Kind: int(d.Kind), Detail: d.Detail})
		}
		for _, ps := range v.Path {
			vs.Path = append(vs.Path, PathState{Cache: ps.Cache, Op: string(ps.Op), To: ps.To})
		}
		cp.Violations = append(cp.Violations, vs)
	}
	for _, e := range b.res.SpecErrors {
		cp.SpecErrors = append(cp.SpecErrors, e.Error())
	}
	return cp, nil
}

// Encode renders the checkpoint as indented, deterministic JSON.
func (cp *Checkpoint) Encode() ([]byte, error) {
	return json.MarshalIndent(cp, "", " ")
}

// DecodeCheckpoint parses and version-checks a serialized checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("enum: decoding checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("enum: unsupported checkpoint version %d (this build reads version %d; checkpoints from older builds cannot be resumed — re-run the enumeration)", cp.Version, CheckpointVersion)
	}
	return &cp, nil
}

// ResumeContext continues an interrupted enumeration from a checkpoint,
// RunConfig.Workers wide (≤ 1: one worker). The run's mode, cache count
// and strictness come from the checkpoint (opts.Strict is ignored);
// budgets, width and the checkpoint options come from opts.
// An uninterrupted run and an interrupted-then-resumed run reach identical
// state counts, whatever the widths of either.
func ResumeContext(ctx context.Context, p *fsm.Protocol, cp *Checkpoint, opts Options) (*Result, error) {
	b, err := resumeBFS(p, cp, opts)
	if err != nil {
		return nil, err
	}
	return b.runPar(ctx, opts.Workers)
}

// resumeBFS rebuilds the shared run state from a checkpoint.
func resumeBFS(p *fsm.Protocol, cp *Checkpoint, opts Options) (*bfs, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("enum: unsupported checkpoint version %d (this build reads version %d; checkpoints from older builds cannot be resumed — re-run the enumeration)", cp.Version, CheckpointVersion)
	}
	if cp.Protocol != p.Name {
		return nil, fmt.Errorf("enum: checkpoint is for protocol %q, not %q", cp.Protocol, p.Name)
	}
	if cp.N < 1 {
		return nil, fmt.Errorf("enum: checkpoint has invalid cache count %d", cp.N)
	}
	if err := validMode(cp.Mode); err != nil {
		return nil, err
	}
	kc := newKeyCodec(p, cp.N, cp.Mode)
	// restoreConfig admits only the fixed points of Canonicalize: the
	// engine holds every state in that form, and a stale version the data
	// classes would rename must not slip past the key lookup (Config.Key
	// renders every version and Latest).
	restoreConfig := func(cs ConfigState, what string, i int) (*fsm.Config, error) {
		c, err := cs.config()
		if err != nil {
			return nil, err
		}
		if len(c.States) != cp.N {
			return nil, fmt.Errorf("enum: checkpoint %s config %d has %d caches, want %d", what, i, len(c.States), cp.N)
		}
		for _, s := range c.States {
			if kc.cp.StateIndex(s) < 0 {
				return nil, fmt.Errorf("enum: checkpoint %s config %d references unknown state %q", what, i, s)
			}
		}
		canon := c.Clone()
		Canonicalize(canon)
		if canon.Key() != c.Key() {
			return nil, fmt.Errorf("enum: checkpoint %s config %d is not canonical: %s, want %s", what, i, c.Key(), canon.Key())
		}
		return c, nil
	}

	if cp.N > 1<<16-1 {
		return nil, fmt.Errorf("enum: checkpoint cache count %d exceeds the provenance-record limit %d", cp.N, 1<<16-1)
	}
	if len(cp.Parents) != len(cp.Visited) {
		return nil, fmt.Errorf("enum: checkpoint has %d visited states but %d provenance records", len(cp.Visited), len(cp.Parents))
	}
	opts.Strict = cp.Strict
	if err := checkOpCount(p); err != nil {
		return nil, err
	}
	b := &bfs{
		p: p, n: cp.N, opts: opts, kc: kc, mode: cp.Mode,
		orun:      opts.Sink().Run("enum-"+cp.Mode, p.Name),
		symmetric: cp.Mode == ModeCounting,
		maxStates: opts.maxStates(),
		parents:   make([]parentRec, 0, len(cp.Parents)),
		res:       &Result{Protocol: p, N: cp.N, Mode: cp.Mode, Visits: cp.Visits},
	}
	// The stores' fixed footprint grows with the key width, so the cache
	// count must match the first visited key before they are built.
	if len(cp.Visited) == 0 {
		return nil, fmt.Errorf("enum: checkpoint has no visited states")
	}
	if _, err := b.kc.parse(cp.Visited[0]); err != nil {
		return nil, err
	}
	b.visited, b.tuples = newCompactStore(b.kc.width), newCompactStore(b.kc.width)
	// Re-inserting Visited in order reproduces the interrupted run's
	// admission ranks, which the provenance records reference. Every
	// record is validated (parent rank below its own, known op, cache in
	// range) so a corrupted file fails here instead of corrupting a run.
	for i, s := range cp.Visited {
		k, err := b.kc.parse(s)
		if err != nil {
			return nil, err
		}
		if b.visited.has(k) {
			return nil, fmt.Errorf("enum: checkpoint visited list repeats key %q", s)
		}
		b.visited.insert(k)
		ps := cp.Parents[i]
		if ps.Parent == -1 {
			b.parents = append(b.parents, parentRec{parent: noParent})
			continue
		}
		if ps.Parent < 0 || ps.Parent >= i {
			return nil, fmt.Errorf("enum: checkpoint provenance %d has parent rank %d (want -1..%d)", i, ps.Parent, i-1)
		}
		if ps.Cache < 0 || ps.Cache >= cp.N {
			return nil, fmt.Errorf("enum: checkpoint provenance %d has cache %d (want 0..%d)", i, ps.Cache, cp.N-1)
		}
		opi := kc.cp.OpIndex(fsm.Op(ps.Op))
		if opi < 0 {
			return nil, fmt.Errorf("enum: checkpoint provenance %d references unknown operation %q", i, ps.Op)
		}
		b.parents = append(b.parents, parentRec{parent: uint32(ps.Parent), cache: uint16(ps.Cache), op: uint8(opi)})
	}
	b.frontier = make([]Key, len(cp.Frontier))
	b.frontRanks = make([]uint32, len(cp.Frontier))
	for i, cs := range cp.Frontier {
		c, err := restoreConfig(cs, "frontier", i)
		if err != nil {
			return nil, err
		}
		if b.frontier[i], _, err = b.kc.configKeys(c); err != nil {
			return nil, err
		}
	}
	// Every resume replays the provenance records, on which witness paths
	// and the reachable set rest: each must reach the state visited at its
	// rank, and the frontier must list reached states in rank and cache
	// order. The tuple census is rebuilt from the replayed states.
	fi := 0
	if _, err := replay(context.Background(), b.kc, b.parents, func(r uint32, state *Key, key Key) error {
		if got, ok := b.visited.rank(key); !ok || got != r {
			return fmt.Errorf("enum: checkpoint provenance %d does not reach the state visited at that rank", r)
		}
		if fi < len(b.frontier) && *state == b.frontier[fi] {
			b.frontRanks[fi] = r
			fi++
		}
		if tk := b.kc.tupleKey(state); !b.tuples.has(tk) {
			b.tuples.insert(tk)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if fi != len(b.frontier) {
		return nil, fmt.Errorf("enum: checkpoint frontier state %d is not reached by its provenance in admission order", fi)
	}
	b.bytes = b.estBytes()
	for i, vs := range cp.Violations {
		c, err := restoreConfig(vs.Config, "violation", i)
		if err != nil {
			return nil, err
		}
		v := Violation{Config: c}
		for _, d := range vs.Violations {
			v.Violations = append(v.Violations, fsm.Violation{Kind: fsm.ViolationKind(d.Kind), Detail: d.Detail})
		}
		for _, ps := range vs.Path {
			v.Path = append(v.Path, PathStep{Cache: ps.Cache, Op: fsm.Op(ps.Op), To: ps.To})
		}
		b.res.Violations = append(b.res.Violations, v)
	}
	for _, s := range cp.SpecErrors {
		b.res.SpecErrors = append(b.res.SpecErrors, fmt.Errorf("%s", s))
	}
	return b, nil
}
