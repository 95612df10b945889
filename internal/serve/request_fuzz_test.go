package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"testing"

	"repro/internal/ccpsl"
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
