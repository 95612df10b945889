package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ccpsl"
	"repro/internal/ckptio"
	"repro/internal/protocols"
)

func TestCacheKeyDiscriminates(t *testing.T) {
	base := JobOptions{Engine: EngineSymbolic}
	keys := map[string]string{
		"base":      CacheKey("spec", base),
		"spec":      CacheKey("spec2", base),
		"engine":    CacheKey("spec", JobOptions{Engine: EngineEnumStrict, N: 4}),
		"n":         CacheKey("spec", JobOptions{Engine: EngineEnumStrict, N: 5}),
		"strict":    CacheKey("spec", JobOptions{Engine: EngineSymbolic, Strict: true}),
		"maxstates": CacheKey("spec", JobOptions{Engine: EngineSymbolic, MaxStates: 7}),
		"workers":   CacheKey("spec", JobOptions{Engine: EngineSymbolic, Workers: 8}),
	}
	seen := map[string]string{}
	for dim, k := range keys {
		if len(k) != 64 {
			t.Errorf("%s: key %q is not hex sha256", dim, k)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("dimensions %s and %s collide on %s", dim, prev, k)
		}
		seen[k] = dim
	}
	if CacheKey("spec", base) != keys["base"] {
		t.Error("CacheKey is not deterministic")
	}
}

// TestResolveSpecCanonicalizes: the protocol name, the canonical rendering
// and a reformatted spelling of the same spec all map to one canonical
// form, hence one cache key.
func TestResolveSpecCanonicalizes(t *testing.T) {
	_, fromName, err := ResolveSpec("illinois", "")
	if err != nil {
		t.Fatal(err)
	}
	p2, fromSpec, err := ResolveSpec("", fromName)
	if err != nil {
		t.Fatal(err)
	}
	if fromSpec != fromName {
		t.Error("Parse∘Format is not idempotent: canonical forms differ")
	}
	// A cosmetically different spelling (extra blank lines between
	// declarations) still canonicalizes to the same form.
	variant := strings.Replace(fromName, "\n\n", "\n\n\n", 1)
	if variant == fromName {
		t.Fatal("test variant did not change the spec text")
	}
	_, fromVariant, err := ResolveSpec("", variant)
	if err != nil {
		t.Fatal(err)
	}
	if fromVariant != fromName {
		t.Error("respaced spec canonicalizes differently")
	}
	if ccpsl.Format(p2) != fromName {
		t.Error("Format of the reparsed protocol differs")
	}
}

func TestResolveSpecErrors(t *testing.T) {
	cases := []struct{ protocol, spec string }{
		{"", ""},
		{"illinois", "protocol X"},
		{"no-such-protocol", ""},
		{"", "not a spec"},
	}
	for _, c := range cases {
		if _, _, err := ResolveSpec(c.protocol, c.spec); err == nil {
			t.Errorf("ResolveSpec(%q, %q): want error", c.protocol, c.spec)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(100, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte("x"), 40)
	c.Put("a", pay)
	c.Put("b", pay)
	// Touch "a" so "b" is the LRU victim when "c" overflows the budget.
	if _, hit, _ := c.Get("a"); !hit {
		t.Fatal("a missing before eviction")
	}
	c.Put("c", pay)
	if _, hit, _ := c.Get("b"); hit {
		t.Error("b survived eviction despite being LRU")
	}
	for _, k := range []string{"a", "c"} {
		if _, hit, _ := c.Get(k); !hit {
			t.Errorf("%s evicted, want resident", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
	// An oversized payload still becomes resident (evicting everything
	// else) rather than wedging the cache.
	huge := bytes.Repeat([]byte("y"), 500)
	c.Put("huge", huge)
	if got, hit, _ := c.Get("huge"); !hit || !bytes.Equal(got, huge) {
		t.Error("oversized entry not resident")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries after oversized put = %d", st.Entries)
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"verdict":"clean"}` + "\n")
	c1.Put("k1", payload)

	// A fresh cache over the same directory — a service restart — serves
	// the entry from disk, byte-identically, and promotes it to memory.
	c2, err := NewCache(0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, hit, disk := c2.Get("k1")
	if !hit || !disk || !bytes.Equal(got, payload) {
		t.Fatalf("disk read: hit %t disk %t payload %q", hit, disk, got)
	}
	if got, hit, disk := c2.Get("k1"); !hit || disk || !bytes.Equal(got, payload) {
		t.Fatalf("promoted read: hit %t disk %t", hit, disk)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.MemHits != 1 || !st.DiskTier {
		t.Errorf("stats = %+v", st)
	}
}

// TestCacheDiskSweepBoundsTier: a restart with DiskCacheBytes set evicts
// the oldest result files until the tier fits, keeps the newest, and
// reports the sweep in the stats.
func TestCacheDiskSweepBoundsTier(t *testing.T) {
	dir := t.TempDir()
	writer, err := NewCache(0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A 1000-byte JSON document: the disk tier serves only valid JSON.
	payload := []byte(`"` + strings.Repeat("x", 998) + `"`)
	keys := []string{"aa", "bb", "cc", "dd"}
	var total int64
	for i, k := range keys {
		writer.Put(k, payload)
		// Pin write order into mtimes so the LRU sweep order is exact even
		// on coarse filesystem clocks.
		when := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		if err := os.Chtimes(writer.diskPath(k), when, when); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(writer.diskPath(k))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}

	// Budget for half the entries: the two oldest must go.
	swept, err := NewCache(0, dir, total/2)
	if err != nil {
		t.Fatal(err)
	}
	st := swept.Stats()
	if st.DiskSwept != 2 || st.DiskSweptBytes == 0 {
		t.Fatalf("sweep stats = %+v, want 2 files swept", st)
	}
	for _, k := range keys[:2] {
		if _, hit, _ := swept.Get(k); hit {
			t.Errorf("evicted key %s still readable", k)
		}
	}
	for _, k := range keys[2:] {
		if _, hit, disk := swept.Get(k); !hit || !disk {
			t.Errorf("surviving key %s: hit %t disk %t", k, hit, disk)
		}
	}
}

// TestCacheDiskCorruptionIsMiss: a truncated or bit-flipped disk entry must
// read as a miss (ckptio's checksum envelope rejects it), never as a
// result.
func TestCacheDiskCorruptionIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k1", []byte("payload"))
	path := filepath.Join(dir, "k1.ccres")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewCache(0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := fresh.Get("k1"); hit {
		t.Fatal("corrupted disk entry served as a hit")
	}
	if st := fresh.Stats(); st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDiskEntryNotJSONIsRecomputed: a disk-tier entry with a valid CRC
// whose payload is not JSON (written by something other than the cache)
// is a disk error and a miss, never a hit: a verify request gets a
// freshly computed report, and a batch still emits one row per job.
func TestDiskEntryNotJSONIsRecomputed(t *testing.T) {
	for _, via := range []string{"verify", "batch"} {
		t.Run(via, func(t *testing.T) {
			dir := t.TempDir()
			_, canonical, err := ResolveSpec("illinois", "")
			if err != nil {
				t.Fatal(err)
			}
			opts := JobOptions{}
			if err := opts.normalize(); err != nil {
				t.Fatal(err)
			}
			store := ckptio.Store{Path: filepath.Join(dir, CacheKey(canonical, opts)+diskSuffix)}
			if err := store.Save([]byte("not json")); err != nil {
				t.Fatal(err)
			}
			srv := newServer(t, Config{Workers: 2, CacheDir: dir})
			tc := startUnixServer(t, srv)

			var report []byte
			if via == "verify" {
				st, code := tc.post(t, `{"protocol":"illinois"}`, true)
				if code != http.StatusOK || st.State != StateDone || st.Cached {
					t.Fatalf("verify: http %d, state %s, cached %t, error %q", code, st.State, st.Cached, st.Error)
				}
				report = st.Report
			} else {
				lines, summary, code := tc.batchStream(t, `{"jobs":[{"protocol":"illinois"}]}`, "")
				if code != http.StatusOK || len(lines) != summary.Total || summary.Total != 1 || summary.Done != 1 {
					t.Fatalf("batch: http %d, %d rows, summary %+v", code, len(lines), summary)
				}
				if l := lines[0]; l.State != StateDone || l.Disposition != BatchComputed {
					t.Fatalf("batch row: state %s, disposition %s, error %q", l.State, l.Disposition, l.Error)
				}
				report = lines[0].Report
			}
			var rep Report
			if err := json.Unmarshal(report, &rep); err != nil || rep.Protocol != "Illinois" || rep.Verdict != VerdictClean {
				t.Fatalf("report %q: %v", report, err)
			}
			s := tc.stats(t)
			if s.EngineRuns != 1 || s.DiskErrors != 1 || s.DiskHits != 0 {
				t.Errorf("engine_runs=%d cache_disk_errors=%d cache_disk_hits=%d, want 1, 1, 0",
					s.EngineRuns, s.DiskErrors, s.DiskHits)
			}
		})
	}
}

// TestNewCachePreflight: an unusable disk-tier path fails cache (and hence
// service) construction with the ckptio typed error instead of failing
// every later store-back.
func TestNewCachePreflight(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCache(0, file, 0); err == nil {
		t.Fatal("NewCache over a plain file: want error")
	}
	// The preflight itself (reached when MkdirAll succeeds but the path is
	// unusable) reports the ckptio typed error.
	if err := ckptio.PreflightDir(file); !errors.Is(err, ckptio.ErrUnwritable) {
		t.Errorf("PreflightDir error %v is not ckptio.ErrUnwritable", err)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	var o JobOptions
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	if o.Engine != EngineSymbolic || o.N != 0 {
		t.Errorf("zero options normalized to %+v", o)
	}
	sym := JobOptions{Engine: EngineSymbolic, N: 5}
	if err := sym.normalize(); err != nil {
		t.Fatal(err)
	}
	if sym.N != 0 {
		t.Error("symbolic options keep n; cache entries would needlessly split")
	}
	en := JobOptions{Engine: EngineEnumCounting}
	if err := en.normalize(); err != nil {
		t.Fatal(err)
	}
	if en.N != 4 {
		t.Errorf("enum default n = %d, want 4", en.N)
	}
	for _, bad := range []JobOptions{
		{Engine: "bogus"},
		{Engine: EngineEnumStrict, N: 1},
		{Engine: EngineEnumStrict, N: maxEnumN + 1},
		{Engine: EngineSymbolic, MaxStates: -1},
	} {
		b := bad
		if err := b.normalize(); err == nil {
			t.Errorf("normalize(%+v): want error", bad)
		}
	}
}

// Keep the protocols import honest: the canonical test protocol must exist.
func TestLibraryHasIllinois(t *testing.T) {
	if _, err := protocols.ByName("illinois"); err != nil {
		t.Fatal(err)
	}
}
