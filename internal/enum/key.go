package enum

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/compile"
	"repro/internal/fsm"
)

// This file is the state-identity layer of the explicit-state engines.
//
// The mⁿ spaces of Section 3.1 make the per-successor cost of computing a
// visited-set key the dominant term of an enumeration run. The original
// implementation keyed every successor by a freshly built string
// (fmt.Sprintf per cache, plus a string sort for counting equivalence);
// this file replaces it with an allocation-free packed encoding: after
// Canonicalize, every cache is exactly one byte (state index in the high
// six bits, the 3-value abstract data domain of Definition 4 in the low
// two), and a whole configuration is a fixed-width comparable value usable
// directly as a map key. Counting equivalence (Definition 5) becomes an
// in-place byte sort instead of a string sort.
//
// Packing applies when the protocol has at most maxPackedStates states and
// the run has at most maxPackedCaches caches; beyond that the codec falls
// back transparently to the legacy canonical strings, so results never
// depend on which representation a run used.

const (
	// maxPackedCaches is the largest cache count the packed encoding can
	// hold: one byte per cache, with the final byte reserved for the memory
	// data class and the packed marker.
	maxPackedCaches = 31
	// maxPackedStates is the largest per-cache state count encodable in the
	// six high bits of a packed byte.
	maxPackedStates = 63
	// packedMark is set in the reserved byte of every packed key so that no
	// valid packed key equals the zero Key.
	packedMark = 0x80
	// tupleMark distinguishes state-only tuple keys from full keys.
	tupleMark = 0x40
)

// Abstract data classes of the packed encoding. They mirror the canonical
// version numbers: NoData, canonFresh and canonObsolete.
const (
	classNone     = 0
	classFresh    = 1
	classObsolete = 2
)

// Key is the comparable identity of a canonical configuration under one
// equivalence mode. In packed mode the identity lives entirely in the
// fixed-width byte array and building a Key allocates nothing; in fallback
// mode (very large protocols or cache counts) the identity is the legacy
// canonical string. No configuration's Key is the zero Key, which renders
// as "".
type Key struct {
	packed [32]byte
	str    string
}

// isZero reports whether k is the zero sentinel.
func (k Key) isZero() bool { return k == Key{} }

// hash folds the key into a shard selector (FNV-1a). It only needs to
// distribute well; it is not part of the key's identity.
func (k Key) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	if k.str != "" {
		for i := 0; i < len(k.str); i++ {
			h ^= uint64(k.str[i])
			h *= prime64
		}
		return h
	}
	for _, b := range k.packed {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// keyCodec computes, renders and parses the keys of one run. A codec is
// specific to a (protocol, cache count, mode) triple; both engines and the
// checkpoint layer of a run share one instance.
type keyCodec struct {
	p      *fsm.Protocol
	n      int
	mode   string
	packed bool
	// cp is the compiled protocol expandOne steps through: the run's one
	// lowering, shared by every BFS worker.
	// A state's packed byte prefix is its compiled index << 2.
	cp *compile.Protocol
}

func newKeyCodec(p *fsm.Protocol, n int, mode string) *keyCodec {
	kc := &keyCodec{p: p, n: n, mode: mode}
	// Compilation fails only for protocols that fail Validate, which every
	// caller has already checked (newBFS, checkpoint restore, tests on
	// library protocols); a failure here is therefore a program bug.
	cp, err := compile.Compile(p)
	if err != nil {
		panic(fmt.Sprintf("enum: compiling validated protocol %s: %v", p.Name, err))
	}
	kc.cp = cp
	kc.packed = n >= 1 && n <= maxPackedCaches && p.NumStates() <= maxPackedStates
	return kc
}

// stateByte returns the packed byte prefix of a declared state, or false
// for an undeclared one.
func (kc *keyCodec) stateByte(s fsm.State) (byte, bool) {
	i := kc.cp.StateIndex(s)
	return byte(i) << 2, i >= 0
}

// class maps a canonical version number to its packed data class. The
// engines only key canonicalized configurations, for which v is one of
// {NoData, Latest, canonObsolete}; any other stale version classifies as
// obsolete exactly like Canonicalize would.
func class(v, latest int64) byte {
	switch {
	case v == fsm.NoData:
		return classNone
	case v == latest:
		return classFresh
	default:
		return classObsolete
	}
}

// classVersion is the inverse of class over the canonical domain.
func classVersion(c byte) int64 {
	switch c {
	case classNone:
		return fsm.NoData
	case classFresh:
		return canonFresh
	default:
		return canonObsolete
	}
}

// key returns the equivalence-class key of a canonicalized configuration:
// strict tuple identity (Section 3.1) for ModeStrict, multiset identity
// (Definition 5) for ModeCounting.
func (kc *keyCodec) key(c *fsm.Config) Key {
	if !kc.packed {
		if kc.mode == ModeCounting {
			return Key{str: countingKey(c)}
		}
		return Key{str: strictKey(c)}
	}
	var k Key
	for i, s := range c.States {
		sb, _ := kc.stateByte(s)
		k.packed[i] = sb | class(c.Versions[i], c.Latest)
	}
	kc.seal(&k, len(c.States), class(c.MemVersion, c.Latest))
	return k
}

// compiledKey returns the key of a packed codec for the canonical form of a
// compiled configuration, which need not be canonicalized itself: the state
// index is the packed state prefix, and class maps every version onto the
// abstract data domain exactly as Canonicalize would. This is how
// expandOne keys a successor before deciding whether to materialise it.
func (kc *keyCodec) compiledKey(c *compile.Config) Key {
	var k Key
	for i, s := range c.States {
		k.packed[i] = byte(s)<<2 | class(c.Versions[i], c.Latest)
	}
	kc.seal(&k, len(c.States), class(c.MemVersion, c.Latest))
	return k
}

// seal finishes a packed key whose n per-cache bytes are filled in: the
// multiset sort of counting mode, then the reserved marker/memory byte.
func (kc *keyCodec) seal(k *Key, n int, mem byte) {
	if kc.mode == ModeCounting {
		sortBytes(k.packed[:n])
	}
	k.packed[maxPackedCaches] = packedMark | mem
}

// tupleKey returns the state-only tuple identity (data ignored), the strict
// tuple census key of Result.TupleStates. It is order-sensitive in both
// modes, exactly like the legacy Config.StateKey.
func (kc *keyCodec) tupleKey(c *fsm.Config) Key {
	if !kc.packed {
		return Key{str: c.StateKey()}
	}
	var k Key
	for i, s := range c.States {
		k.packed[i], _ = kc.stateByte(s)
	}
	k.packed[maxPackedCaches] = packedMark | tupleMark
	return k
}

// sortBytes sorts a small byte slice in place (insertion sort: n ≤ 31).
func sortBytes(b []byte) {
	for i := 1; i < len(b); i++ {
		v := b[i]
		j := i - 1
		for j >= 0 && b[j] > v {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = v
	}
}

// render returns the human-readable canonical string of a key, in exactly
// the format the legacy string keys used (and that checkpoints store):
// "State:v,State:v|m:v|l:0" for strict mode and the sorted
// "State:v,...|m:v" form for counting mode, with v one of the canonical
// version numbers {-1 nodata, 0 fresh, -2 obsolete}.
func (kc *keyCodec) render(k Key) string {
	if k.str != "" {
		return k.str
	}
	if k.isZero() {
		return ""
	}
	pairs := make([]string, kc.n)
	for i := 0; i < kc.n; i++ {
		b := k.packed[i]
		pairs[i] = string(kc.p.States[b>>2]) + ":" + strconv.FormatInt(classVersion(b&3), 10)
	}
	mem := strconv.FormatInt(classVersion(k.packed[maxPackedCaches]&3), 10)
	if kc.mode == ModeCounting {
		sort.Strings(pairs)
		return strings.Join(pairs, ",") + "|m:" + mem
	}
	return strings.Join(pairs, ",") + "|m:" + mem + "|l:0"
}

// renderTuple returns the state-only tuple string ("S1,S2,..."), matching
// the legacy Config.StateKey format.
func (kc *keyCodec) renderTuple(k Key) string {
	if k.str != "" {
		return k.str
	}
	parts := make([]string, kc.n)
	for i := 0; i < kc.n; i++ {
		parts[i] = string(kc.p.States[k.packed[i]>>2])
	}
	return strings.Join(parts, ",")
}

// parse is the inverse of render: it rebuilds a Key from its canonical
// string, validating state names and version numbers against the codec's
// protocol. Checkpoints store keys as rendered strings; parse restores
// them on resume.
func (kc *keyCodec) parse(s string) (Key, error) {
	if s == "" {
		return Key{}, fmt.Errorf("enum: empty state key")
	}
	if !kc.packed {
		return Key{str: s}, nil
	}
	fields := strings.Split(s, "|")
	pairs := strings.Split(fields[0], ",")
	if len(pairs) != kc.n {
		return Key{}, fmt.Errorf("enum: state key %q has %d caches, want %d", s, len(pairs), kc.n)
	}
	var k Key
	for i, pair := range pairs {
		name, ver, err := splitPair(pair)
		if err != nil {
			return Key{}, fmt.Errorf("enum: state key %q: %w", s, err)
		}
		sb, ok := kc.stateByte(fsm.State(name))
		if !ok {
			return Key{}, fmt.Errorf("enum: state key %q references unknown state %q", s, name)
		}
		k.packed[i] = sb | versionClass(ver)
	}
	mem := int64(canonFresh)
	for _, f := range fields[1:] {
		if rest, ok := strings.CutPrefix(f, "m:"); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return Key{}, fmt.Errorf("enum: state key %q: bad memory version %q", s, rest)
			}
			mem = v
		}
	}
	kc.seal(&k, kc.n, versionClass(mem))
	return k, nil
}

// parseTuple restores a state-only tuple key from its rendered string.
func (kc *keyCodec) parseTuple(s string) (Key, error) {
	if !kc.packed {
		return Key{str: s}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != kc.n {
		return Key{}, fmt.Errorf("enum: tuple key %q has %d caches, want %d", s, len(parts), kc.n)
	}
	var k Key
	for i, name := range parts {
		sb, ok := kc.stateByte(fsm.State(name))
		if !ok {
			return Key{}, fmt.Errorf("enum: tuple key %q references unknown state %q", s, name)
		}
		k.packed[i] = sb
	}
	k.packed[maxPackedCaches] = packedMark | tupleMark
	return k, nil
}

func splitPair(pair string) (string, int64, error) {
	i := strings.LastIndexByte(pair, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("malformed pair %q", pair)
	}
	v, err := strconv.ParseInt(pair[i+1:], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("malformed version in pair %q", pair)
	}
	return pair[:i], v, nil
}

func versionClass(v int64) byte {
	return class(v, canonFresh)
}

// cfgPool recycles fsm.Config allocations across expansion steps: a
// successor that loses admission, and a frontier state that has been fully
// expanded, return their backing slices to the pool for the next
// materialisation to reuse. sync.Pool empties itself under GC pressure, so
// the pool never pins memory.
var cfgPool = &sync.Pool{New: func() any { return new(fsm.Config) }}

// materialise decodes a stepped compiled configuration into a pooled
// fsm.Config and canonicalizes it.
func (kc *keyCodec) materialise(c *compile.Config) *fsm.Config {
	next := cfgPool.Get().(*fsm.Config)
	kc.cp.Decode(c, next)
	Canonicalize(next)
	return next
}

// releaseConfig returns a configuration that no longer escapes to the pool.
func releaseConfig(c *fsm.Config) {
	if c != nil {
		cfgPool.Put(c)
	}
}
