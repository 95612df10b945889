package symbolic

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/fsm"
)

// CheckpointVersion is the format version of serialized symbolic
// checkpoints; DecodeCheckpoint rejects other versions.
//
// Version history:
//   - 1: pre fast-path engine (PR 1).
//   - 2: the expander keys its containment pruning on bitmask summaries
//     and a structural-signature index; version 1 files predate the
//     incremental bookkeeping and are rejected rather than reinterpreted.
const CheckpointVersion = 2

// Checkpoint is a resumable snapshot of a Figure 3 expansion, taken at a
// worklist boundary. Composite states are interned into a table (States)
// and referenced by index, so the shared-structure of the run (a state can
// sit on the worklist, in the history and in several witness paths at once)
// survives serialization without duplication. The visit log is not
// captured.
type Checkpoint struct {
	Version  int    `json:"version"`
	Protocol string `json:"protocol"`
	Strict   bool   `json:"strict"`
	// NoContainment records whether the run was the ablation variant; a
	// resumed run must prune the same way or its results would diverge.
	NoContainment bool `json:"no_containment,omitempty"`

	Visits     int `json:"visits"`
	Expansions int `json:"expansions"`
	Superseded int `json:"superseded"`

	// States is the interned composite-state table, sorted by key.
	States []CStateData `json:"states"`
	// Work and Hist reference States by index, in list order.
	Work []int `json:"work"`
	Hist []int `json:"hist"`
	// Parents maps a state key to its provenance (Parent indexes States;
	// -1 marks the initial state).
	Parents map[string]ParentRef `json:"parents"`
	// Reported and SeenKeys are sorted key lists.
	Reported []string `json:"reported,omitempty"`
	SeenKeys []string `json:"seen_keys,omitempty"`

	Violations []ViolationRef `json:"violations,omitempty"`
	SpecErrors []string       `json:"spec_errors,omitempty"`
}

// CStateData is the serialized form of one composite state: per-class
// repetition operators and context variables, the copy-count attribute and
// the memory context variable, all as small integers.
type CStateData struct {
	Reps  []int `json:"reps"`
	Cdata []int `json:"cdata"`
	Attr  int   `json:"attr"`
	Mdata int   `json:"mdata"`
}

// ParentRef is one provenance record.
type ParentRef struct {
	Parent int      `json:"parent"`
	Label  LabelRef `json:"label"`
}

// LabelRef is a serialized transition label.
type LabelRef struct {
	Op     string `json:"op"`
	Origin string `json:"origin,omitempty"`
	NStep  bool   `json:"nstep,omitempty"`
}

// ViolationRef is one recorded violation; State and the path targets index
// the checkpoint's state table.
type ViolationRef struct {
	State      int               `json:"state"`
	Violations []ViolationDetail `json:"violations"`
	Path       []PathRef         `json:"path,omitempty"`
}

// ViolationDetail is one fsm.Violation.
type ViolationDetail struct {
	Kind   int    `json:"kind"`
	Detail string `json:"detail"`
}

// PathRef is one witness path step.
type PathRef struct {
	Label LabelRef `json:"label"`
	To    int      `json:"to"`
}

func labelRef(l Label) LabelRef {
	return LabelRef{Op: string(l.Op), Origin: string(l.Origin), NStep: l.NStep}
}

func (lr LabelRef) label() Label {
	return Label{Op: fsm.Op(lr.Op), Origin: fsm.State(lr.Origin), NStep: lr.NStep}
}

func cstateData(s *CState) CStateData {
	n := s.NumClasses()
	d := CStateData{
		Reps:  make([]int, n),
		Cdata: make([]int, n),
		Attr:  int(s.attr),
		Mdata: int(s.mdata),
	}
	for i := 0; i < n; i++ {
		d.Reps[i] = int(s.Rep(i))
		d.Cdata[i] = int(s.CData(i))
	}
	return d
}

// cstate validates the serialized components against the engine's protocol
// and rebuilds the interned composite state.
func (d CStateData) cstate(e *Engine) (*CState, error) {
	if len(d.Reps) != e.n || len(d.Cdata) != e.n {
		return nil, fmt.Errorf("symbolic: checkpoint state has %d/%d classes, want %d", len(d.Reps), len(d.Cdata), e.n)
	}
	reps := make([]Rep, e.n)
	cdata := make([]Data, e.n)
	for i, r := range d.Reps {
		if r < int(RZero) || r > int(RStar) {
			return nil, fmt.Errorf("symbolic: checkpoint state has invalid repetition operator %d", r)
		}
		reps[i] = Rep(r)
	}
	for i, c := range d.Cdata {
		if c < int(DNone) || c > int(DObsolete) {
			return nil, fmt.Errorf("symbolic: checkpoint state has invalid context variable %d", c)
		}
		cdata[i] = Data(c)
	}
	if d.Attr < int(CountNull) || d.Attr > int(CountMany) {
		return nil, fmt.Errorf("symbolic: checkpoint state has invalid copy count %d", d.Attr)
	}
	if d.Mdata < int(DNone) || d.Mdata > int(DObsolete) {
		return nil, fmt.Errorf("symbolic: checkpoint state has invalid memory variable %d", d.Mdata)
	}
	return newCState(e.n, masksOf(reps, cdata), Count(d.Attr), Data(d.Mdata)), nil
}

// snapshot captures the expander at a worklist boundary.
func (x *expander) snapshot() *Checkpoint {
	cp := &Checkpoint{
		Version:       CheckpointVersion,
		Protocol:      x.e.p.Name,
		Strict:        x.opts.Strict,
		NoContainment: x.opts.NoContainment,
		Visits:        x.res.Visits,
		Expansions:    x.res.Expansions,
		Superseded:    x.res.Superseded,
		Parents:       make(map[string]ParentRef, len(x.parents)),
	}

	// Intern every referenced state into a key-sorted table.
	states := map[string]*CState{}
	add := func(s *CState) {
		if s != nil {
			states[s.Key()] = s
		}
	}
	for _, s := range x.work {
		add(s)
	}
	for _, s := range x.hist {
		add(s)
	}
	for _, pi := range x.parents {
		add(pi.parent)
	}
	for _, v := range x.res.Violations {
		add(v.State)
		for _, ps := range v.Path {
			add(ps.To)
		}
	}
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		index[k] = i
		cp.States = append(cp.States, cstateData(states[k]))
	}
	ref := func(s *CState) int {
		if s == nil {
			return -1
		}
		return index[s.Key()]
	}

	for _, s := range x.work {
		cp.Work = append(cp.Work, ref(s))
	}
	for _, s := range x.hist {
		cp.Hist = append(cp.Hist, ref(s))
	}
	for k, pi := range x.parents {
		cp.Parents[k] = ParentRef{Parent: ref(pi.parent), Label: labelRef(pi.label)}
	}
	for k := range x.reported {
		cp.Reported = append(cp.Reported, k)
	}
	sort.Strings(cp.Reported)
	for k := range x.seenKeys {
		cp.SeenKeys = append(cp.SeenKeys, k)
	}
	sort.Strings(cp.SeenKeys)
	for _, v := range x.res.Violations {
		vr := ViolationRef{State: ref(v.State)}
		for _, d := range v.Violations {
			vr.Violations = append(vr.Violations, ViolationDetail{Kind: int(d.Kind), Detail: d.Detail})
		}
		for _, ps := range v.Path {
			vr.Path = append(vr.Path, PathRef{Label: labelRef(ps.Label), To: ref(ps.To)})
		}
		cp.Violations = append(cp.Violations, vr)
	}
	for _, e := range x.res.SpecErrors {
		cp.SpecErrors = append(cp.SpecErrors, e.Error())
	}
	return cp
}

// Encode renders the checkpoint as indented, deterministic JSON.
func (cp *Checkpoint) Encode() ([]byte, error) {
	return json.MarshalIndent(cp, "", " ")
}

// DecodeCheckpoint parses and version-checks a serialized checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("symbolic: decoding checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("symbolic: unsupported checkpoint version %d (this build reads version %d; checkpoints from older builds cannot be resumed — re-run the expansion)", cp.Version, CheckpointVersion)
	}
	return &cp, nil
}

// ResumeContext continues an interrupted expansion from a checkpoint, with
// RunConfig.Workers speculation workers. The run's strictness and pruning
// variant come from the checkpoint; budgets, width and checkpoint options
// come from opts. An uninterrupted run and an interrupted-then-resumed run
// produce identical Essential lists and counters, whatever the widths of
// either.
func (e *Engine) ResumeContext(ctx context.Context, cp *Checkpoint, opts Options) (*Result, error) {
	x, err := e.resumeExpander(cp, opts)
	if err != nil {
		return nil, err
	}
	return x.runPar(ctx, opts.Workers)
}

// resumeExpander rebuilds the expander state from a checkpoint.
func (e *Engine) resumeExpander(cp *Checkpoint, opts Options) (*expander, error) {
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("symbolic: unsupported checkpoint version %d (this build reads version %d; checkpoints from older builds cannot be resumed — re-run the expansion)", cp.Version, CheckpointVersion)
	}
	if cp.Protocol != e.p.Name {
		return nil, fmt.Errorf("symbolic: checkpoint is for protocol %q, not %q", cp.Protocol, e.p.Name)
	}
	opts.Strict = cp.Strict
	opts.NoContainment = cp.NoContainment
	x := newExpander(e, opts)
	x.res.Visits = cp.Visits
	x.res.Expansions = cp.Expansions
	x.res.Superseded = cp.Superseded

	table := make([]*CState, len(cp.States))
	for i, d := range cp.States {
		s, err := d.cstate(e)
		if err != nil {
			return nil, err
		}
		table[i] = s
	}
	lookup := func(i int, what string) (*CState, error) {
		if i < 0 || i >= len(table) {
			return nil, fmt.Errorf("symbolic: checkpoint %s references state %d of %d", what, i, len(table))
		}
		return table[i], nil
	}

	for _, i := range cp.Work {
		s, err := lookup(i, "worklist")
		if err != nil {
			return nil, err
		}
		// pushWork rebuilds the containment indexes and the incremental
		// byte estimate alongside the ordered list.
		x.pushWork(s)
	}
	for _, i := range cp.Hist {
		s, err := lookup(i, "history")
		if err != nil {
			return nil, err
		}
		x.pushHist(s)
	}
	for k, pr := range cp.Parents {
		pi := parentInfo{label: pr.Label.label()}
		if pr.Parent >= 0 {
			s, err := lookup(pr.Parent, "parent map")
			if err != nil {
				return nil, err
			}
			pi.parent = s
		}
		x.parents[k] = pi
	}
	for _, k := range cp.Reported {
		x.reported[k] = true
	}
	for _, k := range cp.SeenKeys {
		x.seenKeys[k] = struct{}{}
	}
	for _, vr := range cp.Violations {
		s, err := lookup(vr.State, "violation")
		if err != nil {
			return nil, err
		}
		v := StateViolation{State: s}
		for _, d := range vr.Violations {
			v.Violations = append(v.Violations, fsm.Violation{Kind: fsm.ViolationKind(d.Kind), Detail: d.Detail})
		}
		for _, pr := range vr.Path {
			t, err := lookup(pr.To, "witness path")
			if err != nil {
				return nil, err
			}
			v.Path = append(v.Path, PathStep{Label: pr.Label.label(), To: t})
		}
		x.res.Violations = append(x.res.Violations, v)
	}
	for _, s := range cp.SpecErrors {
		x.res.SpecErrors = append(x.res.SpecErrors, fmt.Errorf("%s", s))
	}
	return x, nil
}
