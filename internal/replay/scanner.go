package replay

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"hash"
	"io"
	"math"
	"math/bits"
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
	blocks blockTable

	digest hash.Hash // SHA-256 over the raw (possibly compressed) bytes
	eof    bool
	// long accumulates a line longer than the read buffer; it is reused.
	long []byte
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
func (s *Scanner) Blocks() int { return s.blocks.n }

// Digest returns the SHA-256 of the raw input bytes consumed so far,
// lowercase hex. It is the trace's content address once the scanner has
// reached EOF.
func (s *Scanner) Digest() string {
	return hex.EncodeToString(s.digest.Sum(nil))
}

// readLine reads the next line, bumping the line counter, and returns it
// with its line terminator. The slice aliases the reader's buffer (or,
// for a line longer than the buffer, the scanner's reused long-line
// buffer) and is valid until the next read. io.EOF is returned bare; any
// other failure is classified (a gzip stream that ends mid-member or
// carries corrupt deflate data surfaces as ErrTruncated).
func (s *Scanner) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.long = append(s.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	if len(line) > 0 {
		s.line++
	}
	if err != nil {
		if err == io.EOF {
			if len(line) == 0 {
				return nil, io.EOF
			}
			return line, nil // final line without trailing newline
		}
		var corrupt flate.CorruptInputError
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, gzip.ErrHeader) || errors.Is(err, gzip.ErrChecksum) || errors.As(err, &corrupt) {
			return nil, parseErr(s.line+1, ErrTruncated, "%v", err)
		}
		return nil, err
	}
	return line, nil
}

// readHeader consumes the magic line and the metadata comments up to (not
// including) the first reference line, which stays buffered for NextBatch.
func (s *Scanner) readHeader() error {
	first, err := s.readLine()
	if err != nil {
		if err == io.EOF {
			return parseErr(1, ErrHeader, "empty input, expected %q", Magic)
		}
		return err
	}
	if first = trimEOL(first); string(first) != Magic {
		return parseErr(s.line, ErrHeader, "first line %q, expected %q", first, Magic)
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
func (s *Scanner) headerComment(line []byte) {
	if len(line) < 2 || line[0] != '#' {
		return
	}
	rest := trimSpaces(line[1:])
	colon := bytes.IndexByte(rest, ':')
	if colon < 0 {
		return
	}
	key, val := trimSpaces(rest[:colon]), trimSpaces(rest[colon+1:])
	switch string(key) {
	case "caches":
		if n, err := strconv.Atoi(string(val)); err == nil && n > 0 {
			s.meta.Caches = n
		}
	case "blocksize":
		if n, err := strconv.Atoi(string(val)); err == nil && n > 0 {
			s.meta.BlockSize = n
		}
	case "workload":
		s.meta.Workload = string(val)
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
		if len(line) == 0 || line[0] == '#' {
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

// parseRef decodes one "<cache> <op> <hex-address>" line. The cache index
// and the address are decoded straight from the line's bytes, with exactly
// the syntax strconv.Atoi and strconv.ParseUint(…, 16, 63) accept.
func (s *Scanner) parseRef(line []byte) (trace.Ref, error) {
	var ref trace.Ref
	f0, rest0, ok := nextField(line)
	f1, rest1, ok1 := nextField(rest0)
	f2, rest2, ok2 := nextField(rest1)
	if !ok || !ok1 || !ok2 || len(trimSpaces(rest2)) != 0 {
		return ref, parseErr(s.line, ErrBadLine, "want '<cache> <op> <hex-address>', got %q", line)
	}
	cache, ok := atoi(f0)
	if !ok {
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
	addr, ok := hex63(f2)
	if !ok {
		return ref, parseErr(s.line, ErrBadAddress, "address %q is not hex", f2)
	}
	block, err := s.blockOf(addr)
	if err != nil {
		return ref, err
	}
	ref = trace.Ref{Cache: cache, Op: op, Block: block}
	return ref, nil
}

// atoi decodes b as strconv.Atoi does: an optional sign, then one or more
// decimal digits, with the value in int's range.
func atoi(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const limit = uint64(math.MaxInt) + 1 // the magnitude of math.MinInt
	var n uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 || n > limit/10 {
			return 0, false
		}
		if n = n*10 + uint64(d); n > limit {
			return 0, false
		}
	}
	if neg {
		return -int(n), true // n == limit wraps to math.MinInt, as it should
	}
	if n == limit {
		return 0, false
	}
	return int(n), true
}

// hexDigit maps a byte to its hex digit value, or to 0xff when it is not a
// hex digit of either case.
var hexDigit = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := byte(0); i < 10; i++ {
		t['0'+i] = i
	}
	for i := byte(0); i < 6; i++ {
		t['a'+i], t['A'+i] = 10+i, 10+i
	}
	return t
}()

// hex63 decodes b as strconv.ParseUint(b, 16, 63) does: one or more hex
// digits, with the value below 1<<63.
func hex63(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		d := hexDigit[c]
		if d > 15 || n >= 1<<59 { // n<<4 would reach 1<<63
			return 0, false
		}
		n = n<<4 | uint64(d)
	}
	return int64(n), true
}

// blockOf maps a byte address to its dense block index, assigning a new
// index on first touch.
func (s *Scanner) blockOf(addr int64) (int, error) {
	ab := addr / int64(s.meta.BlockSize)
	slot := s.blocks.find(ab)
	if slot.idx != 0 {
		return slot.idx - 1, nil
	}
	if s.blocks.n >= s.opts.MaxBlocks {
		return 0, parseErr(s.line, ErrTooManyBlocks, "more than %d distinct blocks at blocksize %d",
			s.opts.MaxBlocks, s.meta.BlockSize)
	}
	return s.blocks.add(slot, ab), nil
}

// blockTable maps address blocks (addr/BlockSize, never negative) to dense
// indexes in first-touch order: an open-addressed table with linear
// probing whose slot count, a power of two, doubles whenever it would
// become more than half full. It starts at minBlockSlots and grows with
// the blocks a trace touches, whatever MaxBlocks allows.
type blockTable struct {
	slots []blockSlot
	shift uint // 64 - log2(len(slots)): a hash's top bits pick the slot
	n     int  // blocks assigned
}

// blockSlot holds one address block and its dense index plus one; idx 0
// marks an empty slot.
type blockSlot struct {
	block int64
	idx   int
}

const minBlockSlots = 64

// find returns the slot holding block b, or the empty slot where it
// belongs. The probe starts at the top bits of b's Fibonacci hash, so
// that blocks with equal low bits spread out.
func (t *blockTable) find(b int64) *blockSlot {
	if t.slots == nil {
		t.resize(minBlockSlots)
	}
	mask := len(t.slots) - 1
	for i := int((uint64(b) * 0x9e3779b97f4a7c15) >> t.shift); ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.idx == 0 || sl.block == b {
			return sl
		}
	}
}

// add assigns the next dense index to block b, which find placed at the
// empty slot sl, and returns it.
func (t *blockTable) add(sl *blockSlot, b int64) int {
	idx := t.n
	t.n++
	*sl = blockSlot{block: b, idx: idx + 1}
	if 2*t.n > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	return idx
}

// resize rehashes the table into size slots, a power of two.
func (t *blockTable) resize(size int) {
	old := t.slots
	t.slots = make([]blockSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, o := range old {
		if o.idx != 0 {
			*t.find(o.block) = o
		}
	}
}

// trimEOL strips a trailing \n and \r.
func trimEOL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// trimSpaces strips leading and trailing spaces and tabs.
func trimSpaces(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// nextField splits off the next space/tab-separated field.
func nextField(b []byte) (field, rest []byte, ok bool) {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	if i == len(b) {
		return nil, nil, false
	}
	j := i
	for j < len(b) && b[j] != ' ' && b[j] != '\t' {
		j++
	}
	return b[i:j], b[j:], true
}
