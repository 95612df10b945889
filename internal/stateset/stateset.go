// Package stateset provides a compact set over fixed-width byte keys,
// built for the enumeration engine's visited and tuple-census sets where
// a Go map's ~100+ bytes of per-entry overhead dominates the footprint
// long before the state space itself does.
//
// A Set keeps its resident keys in an insertion-ordered slab of 4 to 8
// KiB chunks that never move, so a key's rank is the rank of the first
// resident key plus its slab position. An open-addressed uint32 index of
// slab positions, probed linearly from the slot the key's 64-bit Hash
// picks, starts at 16,384 slots and then stays between loads 0.6 and
// 0.75: a large set holds at most width + 6.7 bytes per key, plus the rest
// of its last chunk, with no per-entry allocation or pointer.
//
// The set is insert-only (the engines never delete states) and keys are
// assumed distinct by contract: the caller deduplicates via Has/Rank
// before Insert, exactly as the engines deduplicate before admission.
// Callers that probe a key more than once hash it once with Hash and
// pass the hash to RankHashed and InsertHashed.
//
// Spill support: Spill serializes every resident entry into a blob
// sectioned by Shard, each section sorted by key, and drops them from
// memory; BlobReader answers Has/Rank against such a blob with binary
// search and no decode step, so cold entries can live on disk, in any
// envelope the caller likes, and stream back for dedup.
package stateset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

const (
	// NumShards is the number of sections a spill blob is divided into;
	// Shard returns a key's section in [0, NumShards).
	NumShards = 256

	// chunkBytes is the least byte size of a slab chunk: a chunk holds the
	// smallest power of two of keys that fills it.
	chunkBytes = 4 << 10

	// minIndex is the slot count of a new index (64 KiB): a set of up to
	// 12,288 keys, most runs' sets, never rebuilds its index.
	minIndex = 16 << 10
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

// Hash returns the 64-bit hash of key k, mixed from every key byte. Its
// top byte is Shard(k); a Set picks index slots from it.
func Hash(k []byte) uint64 {
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
	return h * 0xbf58476d1ce4e5b9
}

// Shard returns the spill blob section of key k: the top byte of Hash.
// It is part of the spill blob format (since version 2), so it must not
// change without bumping blobMagic.
func Shard(k []byte) int { return int(Hash(k) >> 56) }

// firstIndexes recycles released sets' first indexes: every set takes
// one, and a run of a few hundred states allocates little besides.
var firstIndexes = sync.Pool{New: func() any { return new([minIndex]uint32) }}

// Set is a compact insert-only set of fixed-width byte keys. Not safe
// for concurrent mutation; concurrent Has/Rank calls are safe between
// mutations (the engines read lock-free during a BFS level and insert
// only at the reconcile barrier).
type Set struct {
	width int
	count int  // total inserted, including spilled entries
	base  int  // rank of the first resident key: count - resident
	shift uint // a slab chunk holds 1<<shift keys
	// chunks is the key slab; index holds slab position+1 per used slot,
	// 0 in an empty one.
	chunks [][]byte
	index  []uint32
}

// New returns an empty set over keys of exactly width bytes (width ≥ 1).
// It allocates nothing until the first insert.
func New(width int) *Set {
	if width < 1 {
		panic(fmt.Sprintf("stateset: key width %d out of range", width))
	}
	shift := uint(0)
	for width<<shift < chunkBytes {
		shift++
	}
	return &Set{width: width, shift: shift}
}

// Len reports the total number of keys ever inserted, including entries
// moved out of memory by Spill.
func (s *Set) Len() int { return s.count }

// Resident reports the number of keys currently held in memory.
func (s *Set) Resident() int { return s.count - s.base }

// Bytes is the resident heap footprint: the slab chunks, the chunk list
// and the index at their allocated capacity, all the set holds but itself.
func (s *Set) Bytes() int64 {
	const sliceHeader = 24
	return int64(len(s.chunks))*int64(s.width<<s.shift) + int64(cap(s.chunks))*sliceHeader + int64(len(s.index))*4
}

// key returns the key at slab position p.
func (s *Set) key(p int) []byte {
	off := (p & (1<<s.shift - 1)) * s.width
	return s.chunks[p>>s.shift][off : off+s.width]
}

// slot returns the index slot a probe for hash h starts at: h scaled to
// the index length by its high bits.
func (s *Set) slot(h uint64) int {
	hi, _ := bits.Mul64(h, uint64(len(s.index)))
	return int(hi)
}

// Insert adds k (which must not already be present — check with Has or
// Rank first) and returns its rank: a dense id equal to the number of
// keys inserted before it, stable across Spill.
func (s *Set) Insert(k []byte) uint32 { return s.InsertHashed(k, Hash(k)) }

// InsertHashed is Insert of a key whose Hash the caller computed.
func (s *Set) InsertHashed(k []byte, h uint64) uint32 {
	s.checkWidth(k)
	p := s.Resident()
	s.store(k, p)
	s.count++
	if (p+1)*4 > len(s.index)*3 {
		s.reindex(p + 1)
	} else {
		s.place(h, p)
	}
	return uint32(s.count - 1)
}

// store copies k to slab position p, allocating its chunk if needed.
func (s *Set) store(k []byte, p int) {
	for p>>s.shift >= len(s.chunks) {
		s.chunks = append(s.chunks, make([]byte, s.width<<s.shift))
	}
	copy(s.key(p), k)
}

// place records slab position p in the first empty slot from h's.
func (s *Set) place(h uint64, p int) {
	i := s.slot(h)
	for s.index[i] != 0 {
		if i++; i == len(s.index) {
			i = 0
		}
	}
	s.index[i] = uint32(p) + 1
}

// reindex rebuilds the index over slab positions [0, n) at load 0.6, so
// it takes n/4 more keys before the next rebuild.
func (s *Set) reindex(n int) {
	old := s.index
	if size := n*5/3 + 1; size > minIndex {
		s.index = make([]uint32, size)
	} else {
		s.index = firstIndexes.Get().(*[minIndex]uint32)[:]
		clear(s.index)
	}
	recycle(old)
	for p := 0; p < n; p++ {
		s.place(Hash(s.key(p)), p)
	}
}

// Has reports whether k is resident in the set. Spilled entries are not
// consulted — use a BlobReader over the spill blob for those.
func (s *Set) Has(k []byte) bool {
	_, ok := s.Rank(k)
	return ok
}

// Rank returns the insertion rank of a resident key.
func (s *Set) Rank(k []byte) (uint32, bool) { return s.RankHashed(k, Hash(k)) }

// RankHashed is Rank of a key whose Hash the caller computed.
func (s *Set) RankHashed(k []byte, h uint64) (uint32, bool) {
	s.checkWidth(k)
	if len(s.index) == 0 {
		return 0, false
	}
	for i := s.slot(h); ; {
		v := s.index[i]
		if v == 0 {
			return 0, false
		}
		if bytes.Equal(s.key(int(v-1)), k) {
			return uint32(s.base) + v - 1, true
		}
		if i++; i == len(s.index) {
			i = 0
		}
	}
}

// Spill serializes every resident entry into a self-describing blob,
// drops them from memory, and returns the blob. The blob is sectioned by
// Shard, each section sorted by key, so its bytes depend only on the
// entries spilled. Ranks keep increasing across spills, so a key's rank
// is unique over the union of the resident set and all spill blobs.
// Returns nil when nothing is resident.
func (s *Set) Spill() []byte {
	n := s.Resident()
	if n == 0 {
		return nil
	}
	// order holds each slab position under its Shard, sorted by Shard;
	// each section is then sorted by key.
	order := make([]uint64, n)
	for p := range order {
		order[p] = uint64(Shard(s.key(p)))<<32 | uint64(p)
	}
	slices.Sort(order)
	blob := make([]byte, 0, blobHeader+NumShards*4+n*(s.width+4))
	blob = append(blob, blobMagic[:]...)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(s.width))
	for si := uint64(0); si < NumShards; si++ {
		end := 0
		for end < len(order) && order[end]>>32 == si {
			end++
		}
		sec := order[:end]
		slices.SortFunc(sec, func(a, b uint64) int { return bytes.Compare(s.key(int(uint32(a))), s.key(int(uint32(b)))) })
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(sec)))
		for _, e := range sec {
			blob = append(blob, s.key(int(uint32(e)))...)
			blob = binary.LittleEndian.AppendUint32(blob, uint32(s.base)+uint32(e))
		}
		order = order[end:]
	}
	s.Release()
	return blob
}

// Release drops every resident entry, as Spill does but writing nothing,
// and recycles the set's first index; runs release sets when they end.
func (s *Set) Release() {
	recycle(s.index)
	s.base = s.count
	s.chunks, s.index = nil, nil
}

// recycle returns a first index to firstIndexes.
func recycle(index []uint32) {
	if len(index) == minIndex {
		firstIndexes.Put((*[minIndex]uint32)(index))
	}
}

// Restore re-adds the entries of the blob this set's last Spill returned,
// with their ranks (Len is unchanged), so a caller whose spill write
// failed can roll the entries back; it fails if anything was inserted
// since.
func (s *Set) Restore(blob []byte) error {
	br, err := NewBlobReader(blob)
	if err != nil {
		return err
	}
	base := s.base - br.count
	if br.width != s.width || s.Resident() != 0 || base < 0 {
		return fmt.Errorf("stateset: restoring %d keys of width %d into a set of width %d holding %d of %d",
			br.count, br.width, s.width, s.Resident(), s.count)
	}
	br.ForEach(func(k []byte, r uint32) {
		if p := int(r) - base; p >= 0 && p < br.count {
			s.store(k, p)
		} else {
			err = fmt.Errorf("stateset: restored rank %d outside the spilled range [%d, %d)", r, base, s.base)
		}
	})
	if err != nil {
		s.Release()
		return err
	}
	s.base = base
	s.reindex(br.count)
	return nil
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
