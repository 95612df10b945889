package core

import (
	"encoding/json"
	"strconv"

	"repro/internal/symbolic"
)

// JSONReport is the machine-readable form of a verification report, stable
// for tooling (CI gates, dashboards, diffing two protocol versions).
type JSONReport struct {
	Protocol       string `json:"protocol"`
	Characteristic string `json:"characteristic"`
	Permissible    bool   `json:"permissible"`
	// Truncated and StopReason report a run stopped early by cancellation
	// or a resource budget; Permissible is not trustworthy then.
	Truncated   bool            `json:"truncated,omitempty"`
	StopReason  string          `json:"stop_reason,omitempty"`
	Visits      int             `json:"visits"`
	Expansions  int             `json:"expansions"`
	Essential   []JSONState     `json:"essential"`
	Edges       []JSONEdge      `json:"edges,omitempty"`
	Violations  []JSONViolation `json:"violations,omitempty"`
	SpecErrors  []string        `json:"spec_errors,omitempty"`
	CrossChecks []JSONCross     `json:"cross_checks,omitempty"`
	DeadRules   []string        `json:"dead_rules,omitempty"`
}

// JSONState is one essential composite state.
type JSONState struct {
	Name      string            `json:"name"`
	Structure string            `json:"structure"`
	CopyCount string            `json:"copy_count,omitempty"`
	MData     string            `json:"mdata"`
	CData     map[string]string `json:"cdata"`
}

// JSONEdge is one labelled global transition.
type JSONEdge struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Op     string `json:"op"`
	Origin string `json:"origin"`
	NStep  bool   `json:"n_step,omitempty"`
}

// JSONViolation is one erroneous state with its witness.
type JSONViolation struct {
	State      string   `json:"state"`
	Violations []string `json:"violations"`
	Witness    []string `json:"witness,omitempty"`
}

// JSONCross is one explicit-state cross-check.
type JSONCross struct {
	N          int    `json:"n"`
	States     int    `json:"states"`
	Visits     int    `json:"visits"`
	Violations int    `json:"violations"`
	Uncovered  int    `json:"uncovered"`
	OK         bool   `json:"ok"`
	Truncated  bool   `json:"truncated,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	p := r.Protocol
	jr := JSONReport{
		Protocol:       p.Name,
		Characteristic: p.Characteristic.String(),
		Permissible:    r.Symbolic.OK(),
		Truncated:      r.Symbolic.Truncated,
		Visits:         r.Symbolic.Visits,
		Expansions:     r.Symbolic.Expansions,
	}
	if r.Symbolic.StopReason != nil {
		jr.StopReason = r.Symbolic.StopReason.Error()
	}

	nodes := symbolic.SortStates(r.Symbolic.Essential)
	for i, s := range nodes {
		n := "s" + strconv.Itoa(i)
		js := JSONState{
			Name:      n,
			Structure: s.StructureString(p),
			MData:     s.MData().String(),
			CData:     map[string]string{},
		}
		if s.Attr() != symbolic.CountNull {
			js.CopyCount = s.Attr().String()
		}
		for ci := 0; ci < s.NumClasses(); ci++ {
			if s.Rep(ci) != symbolic.RZero {
				js.CData[string(p.States[ci])] = s.CData(ci).String()
			}
		}
		jr.Essential = append(jr.Essential, js)
	}

	if r.Graph != nil {
		for _, e := range r.Graph.Edges {
			jr.Edges = append(jr.Edges, JSONEdge{
				From:   r.Graph.NodeName(e.From),
				To:     r.Graph.NodeName(e.To),
				Op:     string(e.Op),
				Origin: string(e.Origin),
				NStep:  e.NStep,
			})
		}
	}

	for _, sv := range r.Symbolic.Violations {
		jv := JSONViolation{State: sv.State.StructureString(p)}
		for _, v := range sv.Violations {
			jv.Violations = append(jv.Violations, v.Error())
		}
		for _, ps := range sv.Path {
			jv.Witness = append(jv.Witness, ps.Label.String()+" -> "+ps.To.StructureString(p))
		}
		jr.Violations = append(jr.Violations, jv)
	}
	for _, e := range r.Symbolic.SpecErrors {
		jr.SpecErrors = append(jr.SpecErrors, e.Error())
	}
	for i := range r.CrossChecks {
		cc := &r.CrossChecks[i]
		jc := JSONCross{
			N: cc.N, States: cc.Enum.Unique, Visits: cc.Enum.Visits,
			Violations: len(cc.Enum.Violations), Uncovered: len(cc.Uncovered),
			OK: cc.OK(), Truncated: cc.Enum.Truncated,
		}
		if cc.Enum.StopReason != nil {
			jc.StopReason = cc.Enum.StopReason.Error()
		}
		jr.CrossChecks = append(jr.CrossChecks, jc)
	}
	if r.Symbolic.OK() {
		jr.DeadRules = DeadRules(r)
	}
	return json.MarshalIndent(jr, "", "  ")
}
