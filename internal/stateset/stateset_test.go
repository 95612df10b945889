package stateset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// randomKeys returns count distinct random keys of the given width.
func randomKeys(rng *rand.Rand, width, count int) [][]byte {
	seen := make(map[string]bool, count)
	keys := make([][]byte, 0, count)
	for len(keys) < count {
		k := make([]byte, width)
		rng.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
	}
	return keys
}

// TestSetMatchesMapReference drives the set against a map[string]uint32
// reference across widths and sizes that exercise log scans, run
// flushes, and multi-level merges.
func TestSetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []int{1, 3, 8, 33} {
		for _, count := range []int{0, 1, 127, 128, 1000, 5000} {
			if width == 1 && count > 100 {
				continue // only 256 distinct 1-byte keys exist
			}
			s := New(width)
			keys := randomKeys(rng, width, count)
			ref := make(map[string]uint32, count)
			for i, k := range keys {
				if s.Has(k) {
					t.Fatalf("width=%d count=%d: key %x present before insert", width, count, k)
				}
				r := s.Insert(k)
				if r != uint32(i) {
					t.Fatalf("width=%d count=%d: insert %d returned rank %d", width, count, i, r)
				}
				ref[string(k)] = r
			}
			if s.Len() != count || s.Resident() != count {
				t.Fatalf("width=%d count=%d: Len=%d Resident=%d", width, count, s.Len(), s.Resident())
			}
			for ks, want := range ref {
				got, ok := s.Rank([]byte(ks))
				if !ok || got != want {
					t.Fatalf("width=%d count=%d: Rank(%x) = %d,%v want %d,true", width, count, ks, got, ok, want)
				}
			}
			for _, probe := range randomKeys(rng, width, 50) {
				_, ok := s.Rank(probe)
				if ok != (func() bool { _, hit := ref[string(probe)]; return hit }()) {
					t.Fatalf("width=%d count=%d: Rank(%x) membership mismatch", width, count, probe)
				}
			}
		}
	}
}

// TestSpillRoundTrip checks that spilling moves every entry into the
// blob with ranks intact, that inserts continue with increasing ranks
// afterwards, and that a second spill covers only the new entries.
func TestSpillRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width = 5
	s := New(width)
	first := randomKeys(rng, width, 700)
	for _, k := range first {
		s.Insert(k)
	}
	blob := s.Spill()
	if blob == nil {
		t.Fatal("Spill returned nil with resident entries")
	}
	if s.Resident() != 0 || s.Len() != len(first) {
		t.Fatalf("after spill: Resident=%d Len=%d", s.Resident(), s.Len())
	}
	br, err := NewBlobReader(blob)
	if err != nil {
		t.Fatalf("NewBlobReader: %v", err)
	}
	if br.Len() != len(first) || br.Width() != width {
		t.Fatalf("blob Len=%d Width=%d", br.Len(), br.Width())
	}
	for i, k := range first {
		r, ok := br.Rank(k)
		if !ok || r != uint32(i) {
			t.Fatalf("blob Rank(%x) = %d,%v want %d,true", k, r, ok, i)
		}
		if s.Has(k) {
			t.Fatalf("spilled key %x still resident", k)
		}
	}
	// Blob shard sections must be sorted (binary-search invariant).
	br.ForEach(func(k []byte, r uint32) {})
	for si, sec := range br.sections {
		for i := br.esize; i+br.esize <= len(sec); i += br.esize {
			if bytes.Compare(sec[i-br.esize:i-br.esize+width], sec[i:i+width]) >= 0 {
				t.Fatalf("shard %d not strictly sorted", si)
			}
		}
	}

	second := randomKeys(rng, width, 300)
	for i, k := range second {
		if r := s.Insert(k); r != uint32(len(first)+i) {
			t.Fatalf("post-spill insert rank %d, want %d", r, len(first)+i)
		}
	}
	blob2 := s.Spill()
	br2, err := NewBlobReader(blob2)
	if err != nil {
		t.Fatalf("NewBlobReader(second): %v", err)
	}
	if br2.Len() != len(second) {
		t.Fatalf("second blob Len=%d want %d", br2.Len(), len(second))
	}
	if br2.Has(first[0]) {
		t.Fatal("second blob contains a first-spill key")
	}
	if s.Spill() != nil {
		t.Fatal("Spill with nothing resident should return nil")
	}
}

// TestBlobReaderRejectsCorruptBlobs exercises the framing checks.
func TestBlobReaderRejectsCorruptBlobs(t *testing.T) {
	s := New(4)
	rng := rand.New(rand.NewSource(3))
	for _, k := range randomKeys(rng, 4, 64) {
		s.Insert(k)
	}
	blob := s.Spill()
	cases := map[string][]byte{
		"empty":     {},
		"short":     blob[:3],
		"bad magic": append([]byte("XXXX"), blob[4:]...),
		"truncated": blob[:len(blob)-5],
		"trailing":  append(append([]byte{}, blob...), 0xFF),
	}
	// Inflate a shard count beyond the available bytes.
	huge := append([]byte{}, blob...)
	binary.LittleEndian.PutUint32(huge[5:9], 1<<30)
	cases["huge count"] = huge
	for name, b := range cases {
		if _, err := NewBlobReader(b); err == nil {
			t.Errorf("%s: NewBlobReader accepted a corrupt blob", name)
		}
	}
	if _, err := NewBlobReader(blob); err != nil {
		t.Errorf("valid blob rejected: %v", err)
	}
}

// TestBytesGrowsLinearly pins the footprint model: Bytes is exactly the
// slab chunks and the index at their capacity plus the chunk list, the
// chunks hold the resident keys with less than one chunk to spare, the
// index stays between loads 0.6 and 0.75, the allocator holds no more
// than Bytes for the set (up to 1/16 of runtime noise, which -race
// raises), and Spill returns the set to zero.
func TestBytesGrowsLinearly(t *testing.T) {
	const width = 8
	rng := rand.New(rand.NewSource(5))
	keys := randomKeys(rng, width, 40000) // past two index rebuilds
	var before, after runtime.MemStats
	// Two collections empty the first-index pool, which is not the set's.
	gc2 := func() { runtime.GC(); runtime.GC() }
	gc2()
	runtime.ReadMemStats(&before)
	s := New(width)
	if s.Bytes() != 0 {
		t.Fatalf("empty set Bytes = %d, want 0", s.Bytes())
	}
	for i, k := range keys {
		s.Insert(k)
		n := i + 1
		want := int64(len(s.chunks))*int64(width<<s.shift) + int64(cap(s.chunks))*24 + int64(len(s.index))*4
		if got := s.Bytes(); got != want {
			t.Fatalf("%d keys: Bytes = %d, want chunks + chunk list + index = %d", n, got, want)
		}
		if len(s.chunks) != (n+1<<s.shift-1)>>s.shift {
			t.Fatalf("%d keys in %d chunks of %d", n, len(s.chunks), 1<<s.shift)
		}
		if slots := len(s.index); n*4 > slots*3 || (slots > minIndex && n*5 < (slots-1)*3) {
			t.Fatalf("%d keys in %d index slots: load %.3f outside [0.6, 0.75]", n, slots, float64(n)/float64(slots))
		}
	}
	gc2()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > s.Bytes()+s.Bytes()/16 {
		t.Fatalf("the set holds %d heap bytes, Bytes says %d", held, s.Bytes())
	}
	runtime.KeepAlive(keys)
	s.Spill()
	if s.Bytes() != 0 {
		t.Fatalf("Bytes after spill = %d, want 0", s.Bytes())
	}
}

// TestBlobReaderRejectsVersion1 pins the format bumps: a version-1 blob
// (sectioned by the key's leading byte rather than Shard) and a version-2
// blob (a one-byte key width) must be refused with ErrUnsupportedVersion,
// both by NewBlobReader and by Restore, instead of answering membership
// against the wrong sections or a misread width.
func TestBlobReaderRejectsVersion1(t *testing.T) {
	s := New(4)
	rng := rand.New(rand.NewSource(13))
	for _, k := range randomKeys(rng, 4, 64) {
		s.Insert(k)
	}
	blob := s.Spill()
	if string(blob[:4]) != "SSP3" {
		t.Fatalf("spill blob magic %q, want SSP3", blob[:4])
	}
	for _, magic := range []string{"SSP1", "SSP2"} {
		old := append([]byte(magic), blob[4:]...)
		if _, err := NewBlobReader(old); !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("NewBlobReader(%s) = %v, want ErrUnsupportedVersion", magic, err)
		}
		if err := New(4).Restore(old); !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("Restore(%s) = %v, want ErrUnsupportedVersion", magic, err)
		}
	}
}

// TestWideKeysSpill: keys wider than 255 bytes, which the one-byte width
// of version-2 blobs could not describe, spill and read back.
func TestWideKeysSpill(t *testing.T) {
	const width = 300
	s := New(width)
	rng := rand.New(rand.NewSource(17))
	keys := randomKeys(rng, width, 500)
	for _, k := range keys {
		s.Insert(k)
	}
	br, err := NewBlobReader(s.Spill())
	if err != nil {
		t.Fatal(err)
	}
	if br.Width() != width || br.Len() != len(keys) {
		t.Fatalf("blob width %d len %d, want %d and %d", br.Width(), br.Len(), width, len(keys))
	}
	for want, k := range keys {
		if got, ok := br.Rank(k); !ok || got != uint32(want) {
			t.Fatalf("Rank(key %d) = %d,%v", want, got, ok)
		}
	}
}
