// Package stateset provides a compact, hash-sharded set over
// fixed-width byte keys, built for the enumeration engine's visited and
// tuple-census sets where a Go map's ~100+ bytes of per-entry overhead
// dominates the footprint long before the state space itself does.
//
// Keys are sharded into 256 shards by a hash of all their bytes (Shard),
// so structured keys whose leading bytes take few values still spread
// evenly. Each shard is a short append log of recent insertions plus a
// stack of sorted runs merged with a binary-counter discipline (two runs
// of similar size merge into one, like an LSM level), so memory is a
// flat byte slab: width+4 bytes per entry — the key plus its 32-bit
// insertion rank — with no per-entry allocation, pointer, or hash-bucket
// overhead.
//
// The set is insert-only (the engines never delete states) and keys are
// assumed distinct by contract: the caller deduplicates via Has/Rank
// before Insert, exactly as the engines deduplicate before admission.
//
// Spill support: Spill serializes every resident entry into a sorted
// blob and drops them from memory; BlobReader answers Has/Rank against
// such a blob with binary search and no decode step, so cold entries can
// live on disk (through any envelope the caller likes — the enumeration
// uses ckptio's CRC32 envelope) and stream back for dedup at level
// boundaries.
package stateset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

const (
	// NumShards is the number of shards a Set and a spill blob are
	// divided into; Shard returns a key's shard in [0, NumShards).
	NumShards = 256

	// flushEntries is the append-log length at which a shard sorts its
	// log into a run. Small enough that Has scans stay short, large
	// enough that runs merge geometrically rather than per-insert.
	flushEntries = 16

	// tableOverhead approximates the fixed cost of the shard table and
	// its slice headers. Bytes adds the append logs' slab on top.
	tableOverhead = 16 * 1024
)

// blobMagic prefixes a spill blob: "SSP" + format version. Version 3
// stores the key width in four bytes (little-endian), so keys may be
// wider than 255 bytes; version 2 stored it in one. Version 2 lays the
// sections out by Shard; version 1 blobs were sectioned by the key's
// leading byte, so searching one with Shard would miss keys.
var blobMagic = [4]byte{'S', 'S', 'P', '3'}

// blobHeader is the byte length of a spill blob's magic and key width.
const blobHeader = len(blobMagic) + 4

// ErrUnsupportedVersion reports a spill blob written in a format version
// this build cannot read.
var ErrUnsupportedVersion = errors.New("stateset: unsupported spill blob version")

// Shard returns the shard of key k: a hash of every key byte, folded to
// [0, NumShards). It is part of the spill blob format (since version 2),
// so it must not change without bumping blobMagic.
func Shard(k []byte) int {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(k))
	for len(k) >= 8 {
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(k))*m, 31)
		k = k[8:]
	}
	for _, b := range k {
		h = (h ^ uint64(b)) * m
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return int(h >> 56)
}

type shard struct {
	log  []byte   // unsorted recent entries, flushed at flushEntries
	runs [][]byte // sorted runs, newest last, geometrically sized
}

// logBytes is the capacity of one shard's append log: the log is a
// fixed window of the set's slab and never reallocates.
func logBytes(esize int) int { return flushEntries * esize }

// Set is a compact insert-only set of fixed-width byte keys. Not safe
// for concurrent mutation; concurrent Has/Rank calls are safe between
// mutations (the engines read lock-free during a BFS level and insert
// only at the reconcile barrier).
type Set struct {
	width    int // key bytes
	esize    int // entry bytes: width + 4-byte rank
	count    int // total inserted, including spilled entries
	resident int // entries currently in memory
	shards   [NumShards]shard
}

// New returns an empty set over keys of exactly width bytes (width ≥ 1).
// The shards' append logs are carved out of one slab allocated here, so
// the set's fixed footprint is paid once and counted by Bytes.
func New(width int) *Set {
	if width < 1 {
		panic(fmt.Sprintf("stateset: key width %d out of range", width))
	}
	s := &Set{width: width, esize: width + 4}
	lb := logBytes(s.esize)
	slab := make([]byte, NumShards*lb)
	for i := range s.shards {
		s.shards[i].log = slab[i*lb : i*lb : (i+1)*lb]
	}
	return s
}

// Width reports the key width the set was built with.
func (s *Set) Width() int { return s.width }

// Len reports the total number of keys ever inserted, including entries
// moved out of memory by Spill.
func (s *Set) Len() int { return s.count }

// Resident reports the number of keys currently held in memory.
func (s *Set) Resident() int { return s.resident }

// Bytes estimates the resident heap footprint in bytes. Entries are
// stored in flat slabs, so the estimate is esize per resident entry
// plus the fixed cost of the shard table and the append-log slab.
func (s *Set) Bytes() int64 {
	return int64(s.resident)*int64(s.esize) + tableOverhead + int64(NumShards*logBytes(s.esize))
}

// Insert adds k (which must not already be present — check with Has or
// Rank first) and returns its rank: a dense id equal to the number of
// keys inserted before it, stable across Spill.
func (s *Set) Insert(k []byte) uint32 {
	s.checkWidth(k)
	r := uint32(s.count)
	s.count++
	s.add(k, r)
	return r
}

// add appends one resident entry to its shard's log, flushing the log
// into a sorted run when it is full.
func (s *Set) add(k []byte, r uint32) {
	s.resident++
	sh := &s.shards[Shard(k)]
	sh.log = append(sh.log, k...)
	sh.log = binary.LittleEndian.AppendUint32(sh.log, r)
	if len(sh.log) == cap(sh.log) {
		s.flush(sh)
	}
}

// Has reports whether k is resident in the set. Spilled entries are not
// consulted — use a BlobReader over the spill blob for those.
func (s *Set) Has(k []byte) bool {
	_, ok := s.Rank(k)
	return ok
}

// Rank returns the insertion rank of a resident key.
func (s *Set) Rank(k []byte) (uint32, bool) {
	s.checkWidth(k)
	sh := &s.shards[Shard(k)]
	for i := 0; i+s.esize <= len(sh.log); i += s.esize {
		if bytes.Equal(sh.log[i:i+s.width], k) {
			return binary.LittleEndian.Uint32(sh.log[i+s.width : i+s.esize]), true
		}
	}
	for j := len(sh.runs) - 1; j >= 0; j-- {
		if r, ok := searchRun(sh.runs[j], s.width, s.esize, k); ok {
			return r, true
		}
	}
	return 0, false
}

// Spill serializes every resident entry into a self-describing sorted
// blob, drops them from memory, and returns the blob. Ranks keep
// increasing across spills, so a key's rank is unique over the union of
// the resident set and all spill blobs. Returns nil when nothing is
// resident.
func (s *Set) Spill() []byte {
	if s.resident == 0 {
		return nil
	}
	blob := make([]byte, 0, blobHeader+NumShards*4+s.resident*s.esize)
	blob = append(blob, blobMagic[:]...)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(s.width))
	for si := range s.shards {
		sh := &s.shards[si]
		merged := s.mergedShard(sh)
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(merged)/s.esize))
		blob = append(blob, merged...)
		sh.log = sh.log[:0]
		sh.runs = nil
	}
	s.resident = 0
	return blob
}

// Restore re-adds the entries of a spill blob produced by this set's
// own Spill, preserving their recorded ranks (Len is unchanged — the
// entries were already counted when first inserted). It exists so a
// caller whose spill write failed can roll the entries back into memory
// instead of losing them.
func (s *Set) Restore(blob []byte) error {
	br, err := NewBlobReader(blob)
	if err != nil {
		return err
	}
	if br.width != s.width {
		return fmt.Errorf("stateset: restoring blob of width %d into set of width %d", br.width, s.width)
	}
	br.ForEach(s.add)
	return nil
}

// mergedShard returns all entries of sh as one sorted run without
// mutating the shard.
func (s *Set) mergedShard(sh *shard) []byte {
	total := len(sh.log)
	for _, run := range sh.runs {
		total += len(run)
	}
	if total == 0 {
		return nil
	}
	out := make([]byte, 0, total)
	out = append(out, sh.log...)
	for _, run := range sh.runs {
		out = append(out, run...)
	}
	sortEntries(out, s.width, s.esize)
	return out
}

// flush sorts the shard's log into a run and merges runs while the top
// of the stack is no larger than the run being pushed (binary-counter
// merging keeps the stack logarithmic and total merge work O(n log n)).
func (s *Set) flush(sh *shard) {
	run := bytes.Clone(sh.log)
	sh.log = sh.log[:0]
	sortEntries(run, s.width, s.esize)
	for len(sh.runs) > 0 && len(sh.runs[len(sh.runs)-1]) <= len(run) {
		top := sh.runs[len(sh.runs)-1]
		sh.runs = sh.runs[:len(sh.runs)-1]
		run = mergeRuns(top, run, s.width, s.esize)
	}
	sh.runs = append(sh.runs, run)
}

func (s *Set) checkWidth(k []byte) {
	if len(k) != s.width {
		panic(fmt.Sprintf("stateset: key length %d, set width %d", len(k), s.width))
	}
}

func forEachEntry(buf []byte, width, esize int, f func(key []byte, rank uint32)) {
	for i := 0; i+esize <= len(buf); i += esize {
		f(buf[i:i+width], binary.LittleEndian.Uint32(buf[i+width:i+esize]))
	}
}

// searchRun binary-searches a sorted run for key k.
func searchRun(run []byte, width, esize int, k []byte) (uint32, bool) {
	n := len(run) / esize
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(run[i*esize:i*esize+width], k) >= 0
	})
	if i < n && bytes.Equal(run[i*esize:i*esize+width], k) {
		return binary.LittleEndian.Uint32(run[i*esize+width : i*esize+esize]), true
	}
	return 0, false
}

// mergeRuns merges two sorted runs of distinct keys into one.
func mergeRuns(a, b []byte, width, esize int) []byte {
	out := make([]byte, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if bytes.Compare(a[i:i+width], b[j:j+width]) <= 0 {
			out = append(out, a[i:i+esize]...)
			i += esize
		} else {
			out = append(out, b[j:j+esize]...)
			j += esize
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// sortEntries sorts width+4-byte entries in buf by key bytes in place.
func sortEntries(buf []byte, width, esize int) {
	sort.Sort(&entrySorter{buf: buf, width: width, esize: esize, tmp: make([]byte, esize)})
}

type entrySorter struct {
	buf   []byte
	width int
	esize int
	tmp   []byte // one entry, for Swap
}

func (e *entrySorter) Len() int { return len(e.buf) / e.esize }

func (e *entrySorter) Less(i, j int) bool {
	return bytes.Compare(e.buf[i*e.esize:i*e.esize+e.width], e.buf[j*e.esize:j*e.esize+e.width]) < 0
}

func (e *entrySorter) Swap(i, j int) {
	a := e.buf[i*e.esize : (i+1)*e.esize]
	b := e.buf[j*e.esize : (j+1)*e.esize]
	copy(e.tmp, a)
	copy(a, b)
	copy(b, e.tmp)
}

// BlobReader answers membership and rank queries against a spill blob
// produced by Spill, without decoding it into per-entry structures.
type BlobReader struct {
	width    int
	esize    int
	count    int
	sections [NumShards][]byte // sorted entries per shard, aliasing blob
}

// NewBlobReader validates blob framing and returns a reader over it.
// The reader aliases blob; the caller must keep blob alive and
// unmodified.
func NewBlobReader(blob []byte) (*BlobReader, error) {
	if len(blob) < blobHeader {
		return nil, fmt.Errorf("stateset: spill blob too short (%d bytes)", len(blob))
	}
	if magic := blob[:len(blobMagic)]; !bytes.Equal(magic, blobMagic[:]) {
		if bytes.Equal(magic[:3], blobMagic[:3]) {
			return nil, fmt.Errorf("%w: blob is %q, this build reads %q", ErrUnsupportedVersion, magic, blobMagic[:])
		}
		return nil, fmt.Errorf("stateset: bad spill blob magic %q", magic)
	}
	width := binary.LittleEndian.Uint32(blob[len(blobMagic):blobHeader])
	if width < 1 || width > uint32(len(blob)) {
		return nil, fmt.Errorf("stateset: spill blob key width %d out of range", width)
	}
	r := &BlobReader{width: int(width), esize: int(width) + 4}
	rest := blob[blobHeader:]
	for si := 0; si < NumShards; si++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("stateset: spill blob truncated at shard %d header", si)
		}
		n := int(binary.LittleEndian.Uint32(rest[:4]))
		rest = rest[4:]
		size := n * r.esize
		if n < 0 || size < 0 || size > len(rest) {
			return nil, fmt.Errorf("stateset: spill blob truncated at shard %d (%d entries)", si, n)
		}
		r.sections[si] = rest[:size]
		r.count += n
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("stateset: %d trailing bytes after spill blob shards", len(rest))
	}
	return r, nil
}

// Width reports the key width the blob was written with.
func (r *BlobReader) Width() int { return r.width }

// Len reports the number of entries in the blob.
func (r *BlobReader) Len() int { return r.count }

// Has reports whether k is present in the blob.
func (r *BlobReader) Has(k []byte) bool {
	_, ok := r.Rank(k)
	return ok
}

// Rank returns the insertion rank recorded for k in the blob.
func (r *BlobReader) Rank(k []byte) (uint32, bool) {
	if len(k) != r.width {
		panic(fmt.Sprintf("stateset: key length %d, blob width %d", len(k), r.width))
	}
	return searchRun(r.sections[Shard(k)], r.width, r.esize, k)
}

// ForEach calls f for every entry in the blob with its rank. The key
// slice aliases the blob and must not be mutated or retained.
func (r *BlobReader) ForEach(f func(key []byte, rank uint32)) {
	for si := range r.sections {
		forEachEntry(r.sections[si], r.width, r.esize, f)
	}
}
