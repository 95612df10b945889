package replay

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/trace"
)

// scanAll builds a scanner over src and drains it, returning the first
// error (construction or scan).
func scanAll(t *testing.T, src string) ([]trace.Ref, error) {
	t.Helper()
	sc, err := NewScanner(strings.NewReader(src), ScanOptions{})
	if err != nil {
		return nil, err
	}
	var out []trace.Ref
	buf := make([]trace.Ref, 8)
	for {
		n, err := sc.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// wantParseError asserts err is a *ParseError wrapping sentinel at line.
func wantParseError(t *testing.T, err, sentinel error, line int) {
	t.Helper()
	if err == nil {
		t.Fatalf("no error, want %v at line %d", sentinel, line)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v, want sentinel %v", err, sentinel)
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *ParseError", err)
	}
	if pe.Line != line {
		t.Fatalf("error at line %d, want %d: %v", pe.Line, line, err)
	}
}

func TestScannerEmptyInput(t *testing.T) {
	_, err := scanAll(t, "")
	wantParseError(t, err, ErrHeader, 1)
}

func TestScannerMissingMagic(t *testing.T) {
	_, err := scanAll(t, "0 r 40\n")
	wantParseError(t, err, ErrHeader, 1)
}

func TestScannerMissingCaches(t *testing.T) {
	_, err := scanAll(t, Magic+"\n# blocksize: 64\n0 r 40\n")
	wantParseError(t, err, ErrHeader, 2)
}

func TestScannerHeaderOnly(t *testing.T) {
	_, err := scanAll(t, Magic+"\n# caches: 2\n")
	wantParseError(t, err, ErrEmpty, 2)
}

func TestScannerCommentOnly(t *testing.T) {
	_, err := scanAll(t, Magic+"\n# caches: 2\n# a comment\n\n# another\n")
	wantParseError(t, err, ErrEmpty, 5)
}

func TestScannerCacheOutOfRange(t *testing.T) {
	_, err := scanAll(t, Magic+"\n# caches: 2\n0 r 40\n2 w 40\n")
	wantParseError(t, err, ErrCacheRange, 4)
}

func TestScannerNegativeCache(t *testing.T) {
	_, err := scanAll(t, Magic+"\n# caches: 2\n-1 r 40\n")
	wantParseError(t, err, ErrCacheRange, 3)
}

func TestScannerMalformedHex(t *testing.T) {
	_, err := scanAll(t, Magic+"\n# caches: 2\n0 r 40\n1 w 0xGG\n")
	wantParseError(t, err, ErrBadAddress, 4)
}

func TestScannerUnknownOp(t *testing.T) {
	_, err := scanAll(t, Magic+"\n# caches: 2\n0 q 40\n")
	wantParseError(t, err, ErrBadOp, 3)
}

func TestScannerShortLine(t *testing.T) {
	_, err := scanAll(t, Magic+"\n# caches: 2\n0 r\n")
	wantParseError(t, err, ErrBadLine, 3)
}

func TestScannerTruncatedGzip(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	io.WriteString(zw, Magic+"\n# caches: 2\n0 r 40\n1 w 40\n0 r 80\n")
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-6] // drop part of the gzip trailer

	sc, err := NewScanner(bytes.NewReader(cut), ScanOptions{})
	if err != nil {
		// Acceptable: truncation detected at construction.
		wantParseErrorAny(t, err, ErrTruncated)
		return
	}
	refs := make([]trace.Ref, 8)
	for {
		_, err = sc.NextBatch(refs)
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Fatal("truncated gzip scanned to clean EOF")
	}
	wantParseErrorAny(t, err, ErrTruncated)
}

// wantParseErrorAny asserts the sentinel and ParseError shape without
// pinning the line (truncation can surface at different read points).
func wantParseErrorAny(t *testing.T, err, sentinel error) {
	t.Helper()
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v, want sentinel %v", err, sentinel)
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *ParseError", err)
	}
}

func TestScannerGzipTransparent(t *testing.T) {
	text := Magic + "\n# caches: 2\n0 r 40\n1 w 40\n"
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	io.WriteString(zw, text)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]trace.Ref, 8)
	n, err := sc.NextBatch(refs)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("decoded %d refs, want 2", n)
	}
}

func TestScannerBlockMapping(t *testing.T) {
	// blocksize 64: 0x00 and 0x3f share block 0; 0x40 is block 1; first
	// touch order assigns dense indexes.
	src := Magic + "\n# caches: 2\n# blocksize: 64\n0 r 3f\n1 w 0\n0 r 40\n1 r 0x3F\n"
	refs, err := scanAll(t, src)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 0}
	for i, r := range refs {
		if r.Block != want[i] {
			t.Fatalf("ref %d block %d, want %d", i, r.Block, want[i])
		}
	}
}

func TestScannerBlockSizeOverride(t *testing.T) {
	src := Magic + "\n# caches: 1\n# blocksize: 64\n0 r 0\n0 r 20\n"
	sc, err := NewScanner(strings.NewReader(src), ScanOptions{BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Meta().BlockSize != 32 {
		t.Fatalf("blocksize %d, want override 32", sc.Meta().BlockSize)
	}
	refs := make([]trace.Ref, 4)
	n, _ := sc.NextBatch(refs)
	if n != 2 || refs[0].Block != 0 || refs[1].Block != 1 {
		t.Fatalf("refs %+v, want 0x0→block0 0x20→block1 at blocksize 32", refs[:n])
	}
}

func TestScannerTooManyBlocks(t *testing.T) {
	var b strings.Builder
	b.WriteString(Magic + "\n# caches: 1\n")
	for i := 0; i < 5; i++ {
		b.WriteString("0 r " + hexAddr(i*64) + "\n")
	}
	sc, err := NewScanner(strings.NewReader(b.String()), ScanOptions{MaxBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]trace.Ref, 16)
	_, err = sc.NextBatch(refs)
	wantParseError(t, err, ErrTooManyBlocks, 7)
}

func hexAddr(v int) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0"
	}
	var out []byte
	for v > 0 {
		out = append([]byte{digits[v&15]}, out...)
		v >>= 4
	}
	return string(out)
}

func TestScannerDigestMatchesRawBytes(t *testing.T) {
	spec := WorkloadSpec{Kind: KindUniform, Seed: 3, Caches: 2, Blocks: 4, Ops: 100}
	var plain, zipped bytes.Buffer
	if _, err := MaterializeTo(&plain, spec, false); err != nil {
		t.Fatal(err)
	}
	if _, err := MaterializeTo(&zipped, spec, true); err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) string {
		sc, err := NewScanner(bytes.NewReader(b), ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]trace.Ref, 64)
		for {
			if _, err := sc.NextBatch(refs); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		return sc.Digest()
	}
	dp, dz := digest(plain.Bytes()), digest(zipped.Bytes())
	if dp == dz {
		t.Fatal("plain and gzip digests equal: digest must cover raw bytes")
	}
	if dp != digest(plain.Bytes()) {
		t.Fatal("digest not deterministic")
	}
}

// FuzzScanner feeds arbitrary bytes, plain or gzipped, through the scanner.
// The seeds are short materialized traces from every generator. Properties:
// no panic; every failure is a *ParseError wrapping one of the package's
// sentinels; every decoded reference names a cache in [0, caches) and a
// block in [0, MaxBlocks).
func FuzzScanner(f *testing.F) {
	for _, kind := range Kinds() {
		spec := WorkloadSpec{Kind: kind, Seed: 3, Caches: 3, Blocks: 4, Ops: 12}
		for _, gz := range []bool{false, true} {
			var buf bytes.Buffer
			if _, err := MaterializeTo(&buf, spec, gz); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	sentinels := []error{ErrHeader, ErrEmpty, ErrBadLine, ErrCacheRange, ErrBadOp, ErrBadAddress, ErrTruncated, ErrTooManyBlocks}
	const maxBlocks = 16
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(err error) {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T (%v) is not a *ParseError", err, err)
			}
			for _, s := range sentinels {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("error %v wraps no package sentinel", err)
		}
		sc, err := NewScanner(bytes.NewReader(data), ScanOptions{MaxBlocks: maxBlocks})
		if err != nil {
			check(err)
			return
		}
		caches := sc.Meta().Caches
		buf := make([]trace.Ref, 5)
		for {
			n, err := sc.NextBatch(buf)
			for _, r := range buf[:n] {
				if r.Cache < 0 || r.Cache >= caches || r.Block < 0 || r.Block >= maxBlocks {
					t.Fatalf("ref %+v outside %d caches × %d blocks", r, caches, maxBlocks)
				}
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				check(err)
				return
			}
		}
	})
}
