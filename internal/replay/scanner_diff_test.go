package replay

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strconv"
	"testing"

	"repro/internal/trace"
)

// refDecoder is the model decoder of reference lines: the strconv parser
// and map block index the scanner shipped with. FuzzLineDecoder holds the
// scanner's own decoder to it, reference for reference and error for
// error.
type refDecoder struct {
	s      *Scanner // header, line reader and line counter
	blocks map[int64]int
	order  []int64
}

// parseRef decodes one "<cache> <op> <hex-address>" line.
func (d *refDecoder) parseRef(line []byte) (trace.Ref, error) {
	s := d.s
	var ref trace.Ref
	f0, rest0, ok := nextField(line)
	f1, rest1, ok1 := nextField(rest0)
	f2, rest2, ok2 := nextField(rest1)
	if !ok || !ok1 || !ok2 || len(trimSpaces(rest2)) != 0 {
		return ref, parseErr(s.line, ErrBadLine, "want '<cache> <op> <hex-address>', got %q", line)
	}
	cache, err := strconv.Atoi(string(f0))
	if err != nil {
		return ref, parseErr(s.line, ErrBadLine, "cache field %q is not a number", f0)
	}
	if cache < 0 || cache >= s.meta.Caches {
		return ref, parseErr(s.line, ErrCacheRange, "cache %d, trace has %d caches", cache, s.meta.Caches)
	}
	if len(f1) != 1 {
		return ref, parseErr(s.line, ErrBadOp, "op field %q", f1)
	}
	op, ok := byteOp(f1[0])
	if !ok {
		return ref, parseErr(s.line, ErrBadOp, "op %q (want r, w, z, l or u)", f1)
	}
	if len(f2) > 2 && f2[0] == '0' && (f2[1] == 'x' || f2[1] == 'X') {
		f2 = f2[2:]
	}
	addr, err := strconv.ParseUint(string(f2), 16, 63)
	if err != nil {
		return ref, parseErr(s.line, ErrBadAddress, "address %q is not hex", f2)
	}
	ab := int64(addr) / int64(s.meta.BlockSize)
	block, ok := d.blocks[ab]
	if !ok {
		if len(d.order) >= s.opts.MaxBlocks {
			return ref, parseErr(s.line, ErrTooManyBlocks, "more than %d distinct blocks at blocksize %d",
				s.opts.MaxBlocks, s.meta.BlockSize)
		}
		block = len(d.order)
		d.blocks[ab] = block
		d.order = append(d.order, ab)
	}
	return trace.Ref{Cache: cache, Op: op, Block: block}, nil
}

// refScan drains data through NewScanner's header and line reader and the
// reference decoder, following NextBatch's loop: it returns every decoded
// reference and the error that ended the scan (nil at a clean end).
func refScan(data []byte, opts ScanOptions) ([]trace.Ref, int, error) {
	s, err := NewScanner(bytes.NewReader(data), opts)
	if err != nil {
		return nil, 0, err
	}
	d := &refDecoder{s: s, blocks: make(map[int64]int)}
	var out []trace.Ref
	for {
		line, err := s.readLine()
		if err == io.EOF {
			if len(out) == 0 {
				return out, len(d.order), parseErr(s.line, ErrEmpty, "header but no references")
			}
			return out, len(d.order), nil
		}
		if err != nil {
			return out, len(d.order), err
		}
		line = trimEOL(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		ref, err := d.parseRef(line)
		if err != nil {
			return out, len(d.order), err
		}
		out = append(out, ref)
	}
}

// scanBatches drains data through the scanner in batches of size batch,
// with the same results as refScan.
func scanBatches(data []byte, opts ScanOptions, batch int) ([]trace.Ref, int, error) {
	s, err := NewScanner(bytes.NewReader(data), opts)
	if err != nil {
		return nil, 0, err
	}
	var out []trace.Ref
	buf := make([]trace.Ref, batch)
	for {
		n, err := s.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, s.Blocks(), nil
		}
		if err != nil {
			return out, s.Blocks(), err
		}
	}
}

// sameScanError reports whether two scan errors are the same failure: both
// nil, or *ParseError values with the same line, sentinel and detail, or
// other errors with the same text.
func sameScanError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	var pa, pb *ParseError
	if errors.As(a, &pa) != errors.As(b, &pb) {
		return false
	}
	if pa != nil {
		return pa.Line == pb.Line && pa.Err == pb.Err && pa.Detail == pb.Detail
	}
	return a.Error() == b.Error()
}

// scannerEdgeTraces are trace bodies that probe the line decoder's edges:
// field separators, address prefixes and widths, signed and long cache
// fields, and line terminators.
var scannerEdgeTraces = []string{
	"0\tr\t40\n1\t w \t0x80\n",
	"0    r     40\n  1 w 80  \n",
	"0 r 0x40\n1 w 0X40\n0 r 0x\n",
	"0 r 0XABCDEF\n1 w abcdef\n0 r AbCdEf\n",
	"0 r 000000040\n0 r 0x0000\n1 w 0x00000000000000000000000040\n",
	"0 r 123456789abcdef\n1 r 123456789abcdef0\n0 r 123456789abcdef01\n",
	"0 r 7fffffffffffffff\n0 r 8000000000000000\n0 r ffffffffffffffff\n",
	"+3 r 40\n",
	"+1 r 40\n-0 w 40\n",
	"-1 r 40\n",
	"1234567890 r 40\n",
	"9223372036854775807 r 40\n",
	"9223372036854775808 r 40\n",
	"-9223372036854775808 r 40\n",
	"-9223372036854775809 r 40\n",
	"00000000000000000000001 r 40\n",
	"0 r 40   \n1 w 80\t\t\n",
	"0 r 40\r\n1 w 80\r\n\r\n",
	"0 r 40\r\r\n",
	"+ r 40\n",
	"- r 40\n",
	"0x1 r 40\n",
	"1_0 r 40\n",
	"0 r 4_0\n",
	"0 r +40\n",
	"0 r -40\n",
	"0 rw 40\n",
	"0 q 40\n",
	"0 r 40 extra\n",
	"0 r\n",
	"0 r 4g\n",
	"0 R 40\n1 W 40\n0 Z 40\n1 L 40\n0 U 40\n",
}

// FuzzLineDecoder checks that, for any input, the scanner decodes the same
// references, assigns the same number of blocks and fails with the same
// *ParseError (line, sentinel and detail) as refDecoder, whatever the batch
// size.
func FuzzLineDecoder(f *testing.F) {
	for _, kind := range Kinds() {
		spec := WorkloadSpec{Kind: kind, Seed: 7, Caches: 4, Blocks: 8, Ops: 16}
		var buf bytes.Buffer
		if _, err := MaterializeTo(&buf, spec, false); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(3))
	}
	for i, body := range scannerEdgeTraces {
		f.Add([]byte(Magic+"\n# caches: 4\n# blocksize: 16\n"+body), uint8(i))
	}
	f.Add([]byte(Magic+"\r\n# caches: 2\r\n0 r 40\r\n1 W 0x80\r\n"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, batch uint8) {
		opts := ScanOptions{MaxBlocks: 8}
		want, wantBlocks, wantErr := refScan(data, opts)
		got, gotBlocks, gotErr := scanBatches(data, opts, 1+int(batch)%7)
		if !sameScanError(gotErr, wantErr) {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("refs %+v, reference %+v", got, want)
		}
		if gotBlocks != wantBlocks {
			t.Fatalf("%d blocks, reference %d", gotBlocks, wantBlocks)
		}
	})
}
