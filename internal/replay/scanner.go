package replay

import (
	"bufio"
	"compress/flate"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"hash"
	"io"
	"strconv"

	"repro/internal/trace"
)

// ScanOptions tune a Scanner. The zero value follows the trace header.
type ScanOptions struct {
	// BlockSize is the address→block mapping granularity in bytes (0: the
	// header's blocksize, or DefaultBlockSize when the header has none).
	BlockSize int
	// MaxBlocks caps the distinct blocks the scanner will assign dense
	// indexes to (0: 4096). A trace touching more fails with
	// ErrTooManyBlocks rather than silently aliasing blocks.
	MaxBlocks int
}

// DefaultMaxBlocks is the dense block-table cap when ScanOptions leaves
// MaxBlocks zero.
const DefaultMaxBlocks = 4096

// Scanner streams a cctrace file: header first (at construction), then
// references in caller-sized batches. Gzip input is detected by its magic
// bytes and decompressed transparently; line numbers always refer to the
// decompressed text. The scanner maps byte addresses to dense block
// indexes (address/BlockSize, first-touch ordered), so the emitted
// trace.Ref values feed sim.Machine directly.
type Scanner struct {
	br   *bufio.Reader
	meta Meta
	opts ScanOptions

	line   int // 1-based number of the last line read
	refs   int64
	blocks map[int64]int
	order  []int64 // dense index -> address block, first-touch order

	digest hash.Hash // SHA-256 over the raw (possibly compressed) bytes
	eof    bool
}

// NewScanner sniffs compression, reads and validates the header, and
// returns a scanner positioned at the first reference. Errors are
// *ParseError values naming the offending line.
func NewScanner(r io.Reader, opts ScanOptions) (*Scanner, error) {
	if opts.MaxBlocks <= 0 {
		opts.MaxBlocks = DefaultMaxBlocks
	}
	digest := sha256.New()
	br := bufio.NewReaderSize(io.TeeReader(r, digest), 1<<16)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, parseErr(0, ErrTruncated, "gzip header: %v", err)
		}
		br = bufio.NewReaderSize(zr, 1<<16)
	}
	s := &Scanner{
		br:     br,
		opts:   opts,
		blocks: make(map[int64]int),
		digest: digest,
	}
	if err := s.readHeader(); err != nil {
		return nil, err
	}
	if opts.BlockSize > 0 {
		s.meta.BlockSize = opts.BlockSize
	} else if s.meta.BlockSize <= 0 {
		s.meta.BlockSize = DefaultBlockSize
	}
	return s, nil
}

// Meta returns the parsed header (BlockSize resolved to the effective
// mapping granularity).
func (s *Scanner) Meta() Meta { return s.meta }

// Refs returns the number of references decoded so far.
func (s *Scanner) Refs() int64 { return s.refs }

// Blocks returns the number of distinct blocks assigned so far.
func (s *Scanner) Blocks() int { return len(s.order) }

// Digest returns the SHA-256 of the raw input bytes consumed so far,
// lowercase hex. It is the trace's content address once the scanner has
// reached EOF.
func (s *Scanner) Digest() string {
	return hex.EncodeToString(s.digest.Sum(nil))
}

// readLine reads the next line, bumping the line counter. io.EOF is
// returned bare; any other failure is classified (a gzip stream that ends
// mid-member or carries corrupt deflate data surfaces as ErrTruncated).
func (s *Scanner) readLine() (string, error) {
	line, err := s.br.ReadString('\n')
	if len(line) > 0 {
		s.line++
	}
	if err != nil {
		if err == io.EOF {
			if line == "" {
				return "", io.EOF
			}
			return line, nil // final line without trailing newline
		}
		var corrupt flate.CorruptInputError
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, gzip.ErrHeader) || errors.Is(err, gzip.ErrChecksum) || errors.As(err, &corrupt) {
			return "", parseErr(s.line+1, ErrTruncated, "%v", err)
		}
		return "", err
	}
	return line, nil
}

// readHeader consumes the magic line and the metadata comments up to (not
// including) the first reference line, which is pushed back for NextBatch.
func (s *Scanner) readHeader() error {
	first, err := s.readLine()
	if err != nil {
		if err == io.EOF {
			return parseErr(1, ErrHeader, "empty input, expected %q", Magic)
		}
		return err
	}
	if trimEOL(first) != Magic {
		return parseErr(s.line, ErrHeader, "first line %q, expected %q", trimEOL(first), Magic)
	}
	for {
		peek, err := s.br.Peek(1)
		if err != nil {
			break // EOF (or a read error NextBatch will surface): header ends here
		}
		if peek[0] != '#' && peek[0] != '\n' && peek[0] != '\r' {
			break
		}
		line, err := s.readLine()
		if err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		s.headerComment(trimEOL(line))
	}
	if s.meta.Caches < 1 {
		return parseErr(s.line, ErrHeader, "missing '# caches: N' before the first reference")
	}
	return nil
}

// headerComment interprets one "# key: value" comment; unknown keys and
// malformed values are ignored (comments stay comments).
func (s *Scanner) headerComment(line string) {
	if len(line) < 2 || line[0] != '#' {
		return
	}
	rest := trimSpaces(line[1:])
	colon := -1
	for i := 0; i < len(rest); i++ {
		if rest[i] == ':' {
			colon = i
			break
		}
	}
	if colon < 0 {
		return
	}
	key, val := trimSpaces(rest[:colon]), trimSpaces(rest[colon+1:])
	switch key {
	case "caches":
		if n, err := strconv.Atoi(val); err == nil && n > 0 {
			s.meta.Caches = n
		}
	case "blocksize":
		if n, err := strconv.Atoi(val); err == nil && n > 0 {
			s.meta.BlockSize = n
		}
	case "workload":
		s.meta.Workload = val
	}
}

// NextBatch decodes up to len(buf) references into buf and returns how
// many were filled. At the end of the trace it returns (0, io.EOF) — or a
// *ParseError wrapping ErrEmpty when the whole trace contained no
// references. Any malformed line fails the scan with a *ParseError.
func (s *Scanner) NextBatch(buf []trace.Ref) (int, error) {
	if s.eof {
		return 0, io.EOF
	}
	n := 0
	for n < len(buf) {
		line, err := s.readLine()
		if err != nil {
			if err == io.EOF {
				s.eof = true
				if s.refs == 0 {
					return 0, parseErr(s.line, ErrEmpty, "header but no references")
				}
				if n == 0 {
					return 0, io.EOF
				}
				return n, nil
			}
			return n, err
		}
		line = trimEOL(line)
		if line == "" || line[0] == '#' {
			continue
		}
		ref, err := s.parseRef(line)
		if err != nil {
			return n, err
		}
		buf[n] = ref
		n++
		s.refs++
	}
	return n, nil
}

// parseRef decodes one "<cache> <op> <hex-address>" line.
func (s *Scanner) parseRef(line string) (trace.Ref, error) {
	var ref trace.Ref
	f0, rest0, ok := nextField(line)
	f1, rest1, ok1 := nextField(rest0)
	f2, rest2, ok2 := nextField(rest1)
	if !ok || !ok1 || !ok2 || trimSpaces(rest2) != "" {
		return ref, parseErr(s.line, ErrBadLine, "want '<cache> <op> <hex-address>', got %q", line)
	}
	cache, err := strconv.Atoi(f0)
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
	addr, err := strconv.ParseUint(f2, 16, 63)
	if err != nil {
		return ref, parseErr(s.line, ErrBadAddress, "address %q is not hex", f2)
	}
	block, err := s.blockOf(int64(addr))
	if err != nil {
		return ref, err
	}
	ref = trace.Ref{Cache: cache, Op: op, Block: block}
	return ref, nil
}

// blockOf maps a byte address to its dense block index, assigning a new
// index on first touch.
func (s *Scanner) blockOf(addr int64) (int, error) {
	ab := addr / int64(s.meta.BlockSize)
	if idx, ok := s.blocks[ab]; ok {
		return idx, nil
	}
	if len(s.order) >= s.opts.MaxBlocks {
		return 0, parseErr(s.line, ErrTooManyBlocks, "more than %d distinct blocks at blocksize %d",
			s.opts.MaxBlocks, s.meta.BlockSize)
	}
	idx := len(s.order)
	s.blocks[ab] = idx
	s.order = append(s.order, ab)
	return idx, nil
}

// trimEOL strips a trailing \n and \r.
func trimEOL(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// trimSpaces strips leading and trailing spaces and tabs.
func trimSpaces(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// nextField splits off the next space/tab-separated field.
func nextField(s string) (field, rest string, ok bool) {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	if i == len(s) {
		return "", "", false
	}
	j := i
	for j < len(s) && s[j] != ' ' && s[j] != '\t' {
		j++
	}
	return s[i:j], s[j:], true
}
