package replay

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/report"
)

// ReportSchema versions the comparison report's JSON shape.
const ReportSchema = 1

// ProtocolResult is one protocol's row of a comparison report. All derived
// ratios are rounded to six decimals so the rendering is byte-identical
// across runs and architectures.
type ProtocolResult struct {
	Protocol string `json:"protocol"`
	Ops      int64  `json:"ops"`

	ReadHits    int64 `json:"read_hits"`
	ReadMisses  int64 `json:"read_misses"`
	WriteHits   int64 `json:"write_hits"`
	WriteMisses int64 `json:"write_misses"`

	// MissRatio is (read+write misses) / (reads+writes), rounded.
	MissRatio float64 `json:"miss_ratio"`

	BusTransactions int64 `json:"bus_transactions"`
	// BusPerOp is bus transactions per applied operation, rounded.
	BusPerOp float64 `json:"bus_per_op"`

	Invalidations  int64 `json:"invalidations"`
	Updates        int64 `json:"updates"`
	CacheSupplies  int64 `json:"cache_supplies"`
	MemorySupplies int64 `json:"memory_supplies"`
	WriteBacks     int64 `json:"write_backs"`
	StaleReads     int64 `json:"stale_reads"`

	// Truncated flags a partial run; StopReason names the context stop
	// ("" on complete runs and on runs cut by MaxOps).
	Truncated  bool   `json:"truncated,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	// Violations counts final-state invariant violations (0 for a coherent
	// protocol).
	Violations int `json:"violations"`
}

// ComparisonReport is the deterministic protocol-comparison document: one
// trace, N protocols, the classic Archibald & Baer comparison axes. Equal
// inputs render byte-identically (insertion-ordered rows, rounded ratios,
// json.MarshalIndent with a trailing newline), so the document is safe to
// cache by content and to diff across runs.
type ComparisonReport struct {
	Schema int `json:"schema"`
	// TraceDigest is the SHA-256 of the raw trace bytes.
	TraceDigest string `json:"trace_digest"`
	// Workload is the trace header's provenance line, if any.
	Workload string `json:"workload,omitempty"`
	// Caches, BlockSize and Blocks are the replayed geometry (Blocks is
	// distinct blocks actually touched).
	Caches    int `json:"caches"`
	BlockSize int `json:"block_size"`
	Blocks    int `json:"blocks"`
	// Ops is the reference count of the full trace (the maximum over rows;
	// rows stopped early may have fewer).
	Ops int64 `json:"ops"`
	// Results hold one row per protocol, in the order requested.
	Results []ProtocolResult `json:"results"`

	// CacheKey is the service's content-addressed cache key when the report
	// was produced by ccserved ("" from the CLI).
	CacheKey string `json:"cache_key,omitempty"`
}

// round6 rounds to six decimals, the report's fixed ratio precision.
func round6(v float64) float64 {
	return float64(int64(v*1e6+0.5)) / 1e6
}

// NewReport assembles a ComparisonReport from a fan-out result.
func NewReport(cr *CompareResult) *ComparisonReport {
	rep := &ComparisonReport{
		Schema:      ReportSchema,
		TraceDigest: cr.TraceDigest,
		Workload:    cr.Meta.Workload,
		Caches:      cr.Meta.Caches,
		BlockSize:   cr.Meta.BlockSize,
	}
	for _, r := range cr.Results {
		rep.AddResult(r)
	}
	return rep
}

// AddResult appends one protocol's replay outcome as a report row.
func (rep *ComparisonReport) AddResult(r *Result) {
	st := r.Stats
	row := ProtocolResult{
		Protocol:        r.Protocol,
		Ops:             r.Ops,
		ReadHits:        st.ReadHits,
		ReadMisses:      st.ReadMisses,
		WriteHits:       st.WriteHits,
		WriteMisses:     st.WriteMisses,
		MissRatio:       round6(st.MissRatio()),
		BusTransactions: st.BusTransactions,
		Invalidations:   st.Invalidations,
		Updates:         st.Updates,
		CacheSupplies:   st.CacheSupplies,
		MemorySupplies:  st.MemorySupplies,
		WriteBacks:      st.WriteBacks,
		StaleReads:      st.StaleReads,
		Truncated:       r.Truncated,
		Violations:      len(r.Violations),
	}
	if r.Ops > 0 {
		row.BusPerOp = round6(float64(st.BusTransactions) / float64(r.Ops))
	}
	if r.StopReason != nil {
		row.StopReason = r.StopReason.Error()
	}
	rep.Results = append(rep.Results, row)
	if r.Ops > rep.Ops {
		rep.Ops = r.Ops
	}
	if r.Blocks > rep.Blocks {
		rep.Blocks = r.Blocks
	}
	if rep.Caches == 0 {
		rep.Caches = r.Caches
	}
	if rep.BlockSize == 0 {
		rep.BlockSize = r.BlockSize
	}
	if rep.TraceDigest == "" {
		rep.TraceDigest = r.TraceDigest
	}
}

// Encode renders the report as deterministic indented JSON with a trailing
// newline — the byte-identical form the service caches and the CLI's
// -json output.
func (rep *ComparisonReport) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeReport parses an encoded ComparisonReport.
func DecodeReport(b []byte) (*ComparisonReport, error) {
	var rep ComparisonReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("replay: bad comparison report: %w", err)
	}
	return &rep, nil
}

// Table renders the human-facing comparison: one row per protocol on the
// classic axes.
func (rep *ComparisonReport) Table() string {
	t := report.NewTable("protocol", "ops", "miss ratio", "bus/op", "inval", "updates", "c2c", "mem", "wb", "note")
	for _, r := range rep.Results {
		note := "ok"
		if r.Violations > 0 {
			note = fmt.Sprintf("VIOLATIONS=%d", r.Violations)
		} else if r.Truncated {
			note = "truncated"
			if r.StopReason != "" {
				note = "truncated: " + r.StopReason
			}
		}
		t.AddRow(r.Protocol, r.Ops,
			fmt.Sprintf("%.4f", r.MissRatio),
			fmt.Sprintf("%.4f", r.BusPerOp),
			r.Invalidations, r.Updates, r.CacheSupplies, r.MemorySupplies, r.WriteBacks, note)
	}
	head := fmt.Sprintf("trace %s  caches=%d blocksize=%d blocks=%d ops=%d",
		shortDigest(rep.TraceDigest), rep.Caches, rep.BlockSize, rep.Blocks, rep.Ops)
	return head + "\n\n" + t.String()
}

// shortDigest abbreviates a hex digest for table headers.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	if d == "" {
		return "(unknown)"
	}
	return d
}
