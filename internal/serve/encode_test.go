package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
	"repro/internal/mutate"
)

// encoding/json is the reference for every rendering in encode.go: a
// report is json.MarshalIndent(rep, "", "  ") plus a newline, a batch row
// is json.Encoder.Encode(line), a job status is json.Marshal(st) plus a
// newline.

func refReport(t testing.TB, rep *Report) []byte {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func refBatchLine(t testing.TB, line *BatchLine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(line); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func refJobStatus(t testing.TB, st *JobStatus) []byte {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// checkEncodings compares every rendering of rep against encoding/json:
// the report itself, and the report spliced into a batch row and a job
// status whose other fields vary with variant, so the table covers every
// disposition, the cached and coalesced flags and a failed, report-less
// row.
func checkEncodings(t testing.TB, name string, rep *Report, variant int) {
	t.Helper()
	payload := encodeReport(rep)
	if want := refReport(t, rep); !bytes.Equal(payload, want) {
		t.Fatalf("%s: report differs from MarshalIndent\ngot:\n%s\nwant:\n%s", name, payload, want)
	}
	line := BatchLine{
		Index: variant, Protocol: rep.Protocol, CacheKey: rep.CacheKey,
		State: StateDone, Attempts: 1, Report: payload,
	}
	st := JobStatus{
		ID: fmt.Sprintf("j-%06d", variant), State: StateDone, CacheKey: rep.CacheKey,
		Report: payload,
	}
	switch variant % 4 {
	case 0:
		line.Disposition = BatchComputed
	case 1:
		line.Disposition = BatchCached
		st.Cached = true
	case 2:
		line.Disposition, line.Attempts = BatchRetried, 3
		st.Coalesced = true
	case 3:
		line.State, line.Disposition, line.Attempts = StateFailed, BatchFailed, 4
		line.Error = "serve: batch job failed: <" + rep.Protocol + "> & more"
		line.Report = nil
		st.State, st.Error, st.Report = StateFailed, line.Error, nil
	}
	if got, want := appendBatchLine(nil, &line), refBatchLine(t, &line); !bytes.Equal(got, want) {
		t.Fatalf("%s: batch row differs from json.Encoder\ngot:  %s\nwant: %s", name, got, want)
	}
	if got, want := appendJobStatus(nil, &st), refJobStatus(t, &st); !bytes.Equal(got, want) {
		t.Fatalf("%s: job status differs from json.Marshal\ngot:  %s\nwant: %s", name, got, want)
	}
}

// sweepJobs expands the 53-job mutant sweep under opts exactly as a
// {"sweep": {"mutants": true, ...}} batch request does.
func sweepJobs(tb testing.TB, opts JobOptions) []batchJob {
	tb.Helper()
	jobs, err := new(Server).expandBatch(&BatchRequest{Sweep: &SweepSpec{JobOptions: opts, Mutants: true}})
	if err != nil {
		tb.Fatal(err)
	}
	return jobs
}

// TestEncodeParitySweeps: every report of the symbolic and the strict
// n=4 enumeration sweep renders, alone, as a batch row and as a job
// status, exactly as encoding/json renders it.
func TestEncodeParitySweeps(t *testing.T) {
	ctx := context.Background()
	for _, opts := range []JobOptions{
		{Engine: EngineSymbolic},
		{Engine: EngineEnumStrict, N: 4},
	} {
		jobs := sweepJobs(t, opts)
		if len(jobs) != 53 {
			t.Fatalf("%s sweep expands to %d jobs, want 53", opts.Engine, len(jobs))
		}
		for i := range jobs {
			bj := &jobs[i]
			rep, _, err := runVerification(ctx, bj.Proto, bj.Key, bj.Opts, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", bj.Protocol, opts.Engine, err)
			}
			checkEncodings(t, bj.Protocol+" "+opts.Engine, rep, i)
		}
	}
}

// TestEncodeParityAuditCorpus: the same over the witness-audit golden
// corpus — every shipped spec and every mutant of it, including those
// only the strict check detects — under symbolic default and strict
// expansion and strict enumeration at n=3.
func TestEncodeParityAuditCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.ccpsl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	sort.Strings(paths)
	var corpus []*fsm.Protocol
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ccpsl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		corpus = append(corpus, p)
		for _, m := range mutate.Catalog(p) {
			corpus = append(corpus, m.Protocol)
		}
	}
	ctx := context.Background()
	variant := 0
	for _, opts := range []JobOptions{
		{Engine: EngineSymbolic},
		{Engine: EngineSymbolic, Strict: true},
		{Engine: EngineEnumStrict, N: 3, Strict: true},
	} {
		if err := opts.normalize(); err != nil {
			t.Fatal(err)
		}
		for _, p := range corpus {
			key := CacheKey(ccpsl.Format(p), opts)
			rep, _, err := runVerification(ctx, p, key, opts, nil)
			if err != nil {
				t.Fatalf("%s %+v: %v", p.Name, opts, err)
			}
			checkEncodings(t, fmt.Sprintf("%s %+v", p.Name, opts), rep, variant)
			variant++
		}
	}
}

// TestEncodeStringEscapes pins the escaping cases one by one: HTML bytes,
// the short escapes, other control bytes, DEL, invalid UTF-8, U+2028 and
// U+2029, and valid multi-byte text.
func TestEncodeStringEscapes(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote " backslash \ slash /`, "<a href='x'>&amp;</a>",
		"\b\f\n\r\t", "\x00\x01\x1f\x7f", "bad \xff\xfe utf-8 \xe2\x80", "\u2028 and \u2029",
		"é ü 日本 🎉", "\xed\xa0\x80 surrogate", "\xe2\x80\xa8\xe2\x80\xa9\xe2\x80\xaa",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
	// A nil kinds list renders null, an empty one [].
	rep := &Report{Violations: []ViolationReport{{State: "s"}, {State: "t", Kinds: []string{}}}}
	checkEncodings(t, "kinds", rep, 0)
}

// TestBatchLineAllocFree: rendering a batch row into a warmed buffer
// allocates nothing, so a sweep's rows cost one copy of each report.
func TestBatchLineAllocFree(t *testing.T) {
	jobs := sweepJobs(t, JobOptions{Engine: EngineEnumStrict, N: 3})
	bj := &jobs[1]
	rep, _, err := runVerification(context.Background(), bj.Proto, bj.Key, bj.Opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	line := BatchLine{Index: 1, Protocol: bj.Protocol, CacheKey: bj.Key, State: StateDone,
		Disposition: BatchComputed, Attempts: 1, Report: encodeReport(rep)}
	buf := appendBatchLine(nil, &line)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = appendBatchLine(buf[:0], &line)
	}); allocs != 0 {
		t.Errorf("appendBatchLine into a warmed buffer: %v allocs, want 0", allocs)
	}
}

// fuzzReport builds a report from fuzz input: text, split at NUL bytes,
// supplies the strings in turn (cycling), bits of shape choose how many
// list entries, violations and optional fields there are, and n seeds
// the integers.
func fuzzReport(text string, n int, shape uint16) *Report {
	parts := strings.Split(text, "\x00")
	k := 0
	next := func() string {
		s := parts[k%len(parts)]
		k++
		return s
	}
	list := func(count int) []string {
		out := make([]string, count)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	rep := &Report{
		Schema: n, Protocol: next(), Characteristic: next(), Engine: next(),
		N: n % 7, Strict: shape&1 != 0, MaxStates: -n, Workers: n / 3,
		CacheKey: next(), Verdict: next(), Essential: n * 5, Visits: n >> 2,
		EssentialStates: list(int(shape>>1) & 3),
	}
	for v := 0; v < int(shape>>3)&3; v++ {
		vr := ViolationReport{State: next(), Confirmed: shape>>(5+v)&1 != 0}
		if shape>>(8+v)&1 != 0 {
			vr.Kinds = list(int(shape>>11) & 3)
		}
		vr.Witness = list(int(shape>>13) & 3)
		if shape>>15 != 0 {
			vr.AuditNote = next()
		}
		rep.Violations = append(rep.Violations, vr)
	}
	return rep
}

// FuzzReportEncoding: a report whose strings hold arbitrary bytes renders
// exactly as encoding/json renders it, alone and spliced into a row.
func FuzzReportEncoding(f *testing.F) {
	f.Add("Illinois\x00WB-MESI\x00symbolic\x00abc\x00clean", 4, uint16(0xffff))
	f.Add("<script>&\x00\u2028\u2029\x00\xff\xfe\x00\b\f\n\r\t\x01\x7f\x00\"\\", -17, uint16(0x5a5a))
	f.Add("", 0, uint16(0))
	f.Fuzz(func(t *testing.T, text string, n int, shape uint16) {
		rep := fuzzReport(text, n, shape)
		checkEncodings(t, "fuzz", rep, n&3)
	})
}

// FuzzCompact: for any valid JSON document, appendCompact produces what
// json.Encoder writes for it as a json.RawMessage.
func FuzzCompact(f *testing.F) {
	f.Add([]byte(`{ "a" : [ 1 , 2.5e3 , true , null , "x\"<y>&z" ] , "b" : { } }`))
	f.Add([]byte("\t[\"\u2028\\\\\u2029\", \"\\u003c\", \"\\\"\", [], {}]\r\n"))
	f.Add([]byte(`"\\"`))
	f.Add([]byte(" 12 "))
	f.Fuzz(func(t *testing.T, src []byte) {
		if !json.Valid(src) {
			return
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(json.RawMessage(src)); err != nil {
			t.Fatal(err)
		}
		if got := append(appendCompact(nil, src), '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendCompact(%q)\ngot:  %q\nwant: %q", src, got, want.Bytes())
		}
	})
}
