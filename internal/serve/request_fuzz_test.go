package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/replay"
	"repro/specs"
)

// decodeBody decodes the first JSON value of body into v under a byte
// limit, as the handlers do with http.MaxBytesReader and json.Decoder.
func decodeBody(body []byte, limit int64, v any) error {
	return json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)).Decode(v)
}

// FuzzRequestBodies decodes arbitrary bytes both as a POST /v1/verify body
// (Request → ResolveSpec → JobOptions.normalize → CacheKey, as in
// handleVerify) and as a POST /v1/verify/batch body (BatchRequest →
// expandBatch, as in handleVerifyBatch). Nothing may panic, and every
// accepted job's cache key must equal the key of {"spec": canonical} under
// the same normalized options: a library name, any spelling of a spec and
// a sweep entry all land on one identity.
func FuzzRequestBodies(f *testing.F) {
	files, err := fs.Glob(specs.FS, "*.ccpsl")
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped specs: %v", err)
	}
	for _, file := range files {
		src, err := fs.ReadFile(specs.FS, file)
		if err != nil {
			f.Fatal(err)
		}
		verify, _ := json.Marshal(Request{Spec: string(src)})
		batch, _ := json.Marshal(BatchRequest{Jobs: []Request{{Spec: string(src), JobOptions: JobOptions{Engine: EngineEnumCounting, N: 3}}}})
		f.Add(verify)
		f.Add(batch)
	}
	for _, body := range []string{
		`{"protocol": "illinois"}`,
		`{"protocol": "dragon", "engine": "enum-strict", "n": 4}`,
		`{"protocol": "Write_Once", "workers": 8, "strict": true}`,
		`{"protocol": "illinois", "spec": "protocol X"}`,
		`{}`,
		`{"jobs": [{"protocol": "illinois"}, {"protocol": "dragon", "engine": "enum-strict", "n": 3}]}`,
		`{"jobs": [{"protocol": "illinois", "engine": "enum-strict", "n": 99}]}`,
		`{"sweep": {"protocols": ["illinois", "msi"], "mutants": true, "engine": "enum-strict", "n": 3}}`,
		fullSweepBody,
		`{"sweep": {"protocols": ["bogus"]}}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		// sameIdentity resubmits a job as {"spec": canonical} with its
		// normalized options and checks that the key does not move, and
		// that canonical is the ccpsl.Format rendering of the protocol it
		// parses to, so every spelling of a spec keys alike.
		sameIdentity := func(route, key, canonical string, opts JobOptions) {
			t.Helper()
			doc, err := json.Marshal(Request{Spec: canonical, JobOptions: opts})
			if err != nil {
				t.Fatal(err)
			}
			var req Request
			if err := decodeBody(doc, maxRequestBytes, &req); err != nil {
				t.Fatalf("%s: re-decoding %s: %v", route, doc, err)
			}
			p, again, err := ResolveSpec(req.Protocol, req.Spec)
			if err != nil {
				t.Fatalf("%s: canonical spec does not resolve: %v\n%s", route, err, canonical)
			}
			if ccpsl.Format(p) != canonical {
				t.Fatalf("%s: spec keyed as submitted, not as its ccpsl.Format rendering:\n%s", route, canonical)
			}
			o := req.JobOptions
			if err := o.normalize(); err != nil {
				t.Fatalf("%s: normalized options %+v do not normalize again: %v", route, opts, err)
			}
			if got := CacheKey(again, o); got != key {
				t.Fatalf("%s: key %s, but {\"spec\": canonical} keys to %s\n%s", route, key, got, canonical)
			}
		}

		var req Request
		if decodeBody(body, maxRequestBytes, &req) == nil {
			if _, canonical, err := ResolveSpec(req.Protocol, req.Spec); err == nil {
				opts := req.JobOptions
				if opts.normalize() == nil {
					sameIdentity("verify", CacheKey(canonical, opts), canonical, opts)
				}
			}
		}
		var batch BatchRequest
		if decodeBody(body, maxBatchRequestBytes, &batch) == nil {
			jobs, err := (&Server{}).expandBatch(&batch)
			if err != nil {
				return
			}
			for _, j := range jobs {
				sameIdentity("batch job "+j.Protocol, j.Key, j.Canonical, j.Opts)
			}
		}
	})
}

// FuzzSimulateBody decodes arbitrary bytes as a POST /v1/simulate body
// (SimulateRequest → resolve → SimulateCacheKey, as in handleSimulate and
// SubmitSimulate). Nothing may panic and every rejection wraps
// ErrSimulateRequest. An accepted request must respect the caps on the
// protocol fan-out, caches, ops and blocks, and its normalized form,
// re-encoded and resolved again, must key to the same entry.
func FuzzSimulateBody(f *testing.F) {
	for _, body := range []string{
		`{"workload":{"kind":"uniform","seed":1,"caches":2,"blocks":8,"ops":5000},"protocols":["msi"]}`,
		`{"workload":{"kind":"hot-block","seed":7,"caches":4,"blocks":16,"ops":100,"p_write":0.5,"hot_frac":0.9}}`,
		`{"workload":{"kind":"migratory","seed":2,"caches":3,"blocks":4,"ops":64,"burst":2},"capacity":2,"max_ops":10}`,
		`{"workload":{"kind":"lock","seed":3,"caches":2,"blocks":2,"ops":50,"work_len":3},"strict":true}`,
		`{"workload":{"kind":"uniform","seed":1,"caches":65,"blocks":8,"ops":10}}`,
		`{"workload":{"kind":"uniform","seed":1,"caches":2,"blocks":8,"ops":5000001}}`,
		`{"trace":"# cctrace v1\n# caches: 2\n0 r 0\n1 w 40\n","protocols":["dragon","Illinois"],"block_size":32}`,
		`{"trace":"# cctrace v1\n# caches: 99\n0 r 0\n"}`,
		`{"trace":"not a cctrace\n","protocols":["msi"]}`,
		`{"trace":"x","workload":{"kind":"uniform","caches":1,"blocks":1,"ops":1}}`,
		`{"protocols":["bogus"]}`,
		`{"max_blocks":70000}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SimulateRequest
		if decodeBody(body, maxSimulateBytes, &req) != nil {
			return
		}
		protos, names, identity, err := req.resolve()
		if err != nil {
			if !errors.Is(err, ErrSimulateRequest) {
				t.Fatalf("rejection does not wrap ErrSimulateRequest: %v", err)
			}
			return
		}
		if len(protos) == 0 || len(protos) > maxSimulateProtocols || len(names) != len(protos) {
			t.Fatalf("accepted a fan-out of %d protocols (%d names)", len(protos), len(names))
		}
		if req.MaxBlocks < 1 || req.MaxBlocks > maxSimulateBlocks {
			t.Fatalf("accepted max_blocks %d", req.MaxBlocks)
		}
		if w := req.Workload; w != nil {
			if w.Caches > maxSimulateCaches || w.Ops > maxSimulateOps || w.Blocks > maxSimulateBlocks {
				t.Fatalf("accepted workload caches=%d ops=%d blocks=%d", w.Caches, w.Ops, w.Blocks)
			}
		} else if sc, err := replay.NewScanner(strings.NewReader(req.Trace), replay.ScanOptions{}); err == nil && sc.Meta().Caches > maxSimulateCaches {
			t.Fatalf("accepted a trace header of %d caches", sc.Meta().Caches)
		}
		key := SimulateCacheKey(identity, names, req.SimOptions)

		doc, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		var again SimulateRequest
		if err := decodeBody(doc, maxSimulateBytes, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", doc, err)
		}
		_, names2, identity2, err := again.resolve()
		if err != nil {
			t.Fatalf("normalized request %s is rejected: %v", doc, err)
		}
		if got := SimulateCacheKey(identity2, names2, again.SimOptions); got != key {
			t.Fatalf("key %s, but the normalized request keys to %s\n%s", key, got, doc)
		}
	})
}
