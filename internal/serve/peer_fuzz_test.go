package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/ckptio"
)

// FuzzPeerEnvelope fuzzes the cluster receive path: the bytes a peer
// answers a cache fill or a forwarded compute with go through
// ckptio.Decode, then validReport. Nothing may panic; Decode fails only
// with its typed errors and returns exactly what the envelope wraps; and a
// payload validReport accepts is valid JSON, so appendCompact splices it
// into rows and statuses as json.Encoder would write it.
func FuzzPeerEnvelope(f *testing.F) {
	p, canonical, err := ResolveSpec("illinois", "")
	if err != nil {
		f.Fatal(err)
	}
	opts := JobOptions{}
	if err := opts.normalize(); err != nil {
		f.Fatal(err)
	}
	key := CacheKey(canonical, opts)
	rep, _, err := runVerification(context.Background(), p, key, opts, nil)
	if err != nil {
		f.Fatal(err)
	}
	report := encodeReport(rep)
	f.Add(key, ckptio.Encode(report))
	f.Add("another-key", ckptio.Encode(report))
	f.Add(key, ckptio.Encode(append(bytes.Clone(report), " trailing"...)))
	f.Add(key, ckptio.Encode(report[:len(report)/2]))
	f.Add(key, ckptio.Encode([]byte(`{"schema": 0, "cache_key": "`+key+`"}`)))
	f.Add(key, append(ckptio.Encode(report), '\n'))
	f.Add(key, []byte("ccckpt v9 crc32=00000000 len=0\n"))
	f.Add("", []byte{})
	srv := new(Server)
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		payload, err := ckptio.Decode("peer", data)
		if err != nil {
			var corrupt *ckptio.CorruptError
			var version *ckptio.UnsupportedVersionError
			if !errors.As(err, &corrupt) && !errors.As(err, &version) {
				t.Fatalf("Decode failed with an untyped error: %v", err)
			}
			return
		}
		if again, err := ckptio.Decode("peer", ckptio.Encode(payload)); err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("payload does not survive a re-envelope: %v", err)
		}
		if !srv.validReport(key, payload) {
			return
		}
		if !json.Valid(payload) {
			t.Fatalf("validReport accepted invalid JSON %q", payload)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(json.RawMessage(payload)); err != nil {
			t.Fatal(err)
		}
		if got := append(appendCompact(nil, payload), '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("accepted payload splices as %q, json.Encoder writes %q", got, want.Bytes())
		}
	})
}
