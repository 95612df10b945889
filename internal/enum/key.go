package enum

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/compile"
	"repro/internal/fsm"
)

// This file is the state-identity layer of the explicit-state engine.
//
// The mⁿ spaces of Section 3.1 make the per-successor cost of computing a
// visited-set key the dominant term of an enumeration run, and a state's
// identity needs only what Definition 4 keeps of it: each cache's state and
// data class (nodata, fresh or obsolete), and the memory's data class. So
// every state of a run is one fixed-width byte string, its key: one unit of
// u bytes per cache, holding the compiled state index shifted left by two
// and or'ed with the data class (big-endian), then a tail byte holding the
// memory's class and a marker. u is the smallest byte count that holds the
// largest unit, so u = 1 up to 64 states. Counting equivalence
// (Definition 5) sorts the units.
//
// The key is the only in-memory form of a state inside the engine: the
// frontier holds keys in cache order, expansion decodes them straight into
// a worker's compile.Config, and fsm.Config exists only at the edges (the
// initial state, the admission check, reported configurations and
// checkpoints). Every run, whatever its cache or state count, uses this one
// codec, the compact store and the spill path.

const (
	// keyMark is set in the tail byte of every key so that no key equals
	// the zero Key.
	keyMark = 0x80
	// tupleMark distinguishes state-only tuple keys from full keys.
	tupleMark = 0x40
)

// Abstract data classes of the key units. They mirror the canonical
// version numbers: NoData, canonFresh and canonObsolete.
const (
	classNone     = 0
	classFresh    = 1
	classObsolete = 2
)

// Key holds a state's key bytes. A key of up to 32 bytes sits inline in
// packed, so building one allocates nothing; a longer key (a wide run: over
// 31 caches, or two-byte units above 15) holds the same bytes in str.
// Either way a Key is comparable and usable as a map key, and no state's
// Key is the zero Key.
type Key struct {
	packed [32]byte
	str    string
}

// keyOf returns the Key holding the key bytes b.
func keyOf(b []byte) Key {
	var k Key
	if len(b) > len(k.packed) {
		k.str = string(b)
	} else {
		copy(k.packed[:], b)
	}
	return k
}

// bytes returns the key's width bytes: a view of packed for an inline key,
// a copy of str for a long one.
func (k *Key) bytes(width int) []byte {
	if k.str != "" {
		return []byte(k.str)
	}
	return k.packed[:width]
}

// keyCodec computes, decodes, renders and parses the keys of one run. A
// codec is specific to a (protocol, cache count, mode) triple; the engine
// and the checkpoint layer of a run share one instance.
type keyCodec struct {
	p    *fsm.Protocol
	n    int
	mode string
	// cp is the compiled protocol expandOne steps through: the run's one
	// lowering, shared by every BFS worker. A unit's state is an index
	// into its states.
	cp *compile.Protocol
	// unit is the byte count of one cache's unit, and width that of a
	// whole key: n units and the tail byte.
	unit, width int
}

func newKeyCodec(p *fsm.Protocol, n int, mode string) *keyCodec {
	// Compilation fails only for protocols that fail Validate, which every
	// caller has already checked (newBFS, checkpoint restore, tests on
	// library protocols); a failure here is therefore a program bug.
	cp, err := compile.Compile(p)
	if err != nil {
		panic(fmt.Sprintf("enum: compiling validated protocol %s: %v", p.Name, err))
	}
	unit := 1
	for top := (cp.NumStates-1)<<2 | 3; top > 0xff; top >>= 8 {
		unit++
	}
	return &keyCodec{p: p, n: n, mode: mode, cp: cp, unit: unit, width: n*unit + 1}
}

// scratch returns width bytes to build a key in: backing when it is long
// enough, so inline keys are built on the caller's stack.
func (kc *keyCodec) scratch(backing []byte) []byte {
	if kc.width <= len(backing) {
		return backing[:kc.width]
	}
	return make([]byte, kc.width)
}

// unitAt returns the unit of cache i in the key bytes b.
func (kc *keyCodec) unitAt(b []byte, i int) int {
	v := 0
	for _, x := range b[i*kc.unit : (i+1)*kc.unit] {
		v = v<<8 | int(x)
	}
	return v
}

// putUnit stores v as the unit of cache i in the key bytes b.
func (kc *keyCodec) putUnit(b []byte, i, v int) {
	for j := (i+1)*kc.unit - 1; j >= i*kc.unit; j-- {
		b[j] = byte(v)
		v >>= 8
	}
}

// sortUnits sorts the units of the key bytes b in place (insertion sort:
// the counting-mode multiset identity).
func (kc *keyCodec) sortUnits(b []byte) {
	for i := 1; i < kc.n; i++ {
		v := kc.unitAt(b, i)
		j := i - 1
		for ; j >= 0 && kc.unitAt(b, j) > v; j-- {
			kc.putUnit(b, j+1, kc.unitAt(b, j))
		}
		kc.putUnit(b, j+1, v)
	}
}

// class maps a version number to its data class, exactly as Canonicalize
// renames it: NoData stays, latest is fresh, any other version obsolete.
func class(v, latest int64) int {
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
func classVersion(c int) int64 {
	switch c {
	case classNone:
		return fsm.NoData
	case classFresh:
		return canonFresh
	default:
		return canonObsolete
	}
}

// keys returns the keys of the canonical form of a compiled configuration,
// which need not be canonical itself. state lists the caches in their
// order, the form the frontier holds; key is the run's dedup identity:
// strict tuple identity (Section 3.1) for ModeStrict, the same Key as
// state, and multiset identity (Definition 5), with the units sorted, for
// ModeCounting.
func (kc *keyCodec) keys(c *compile.Config) (state, key Key) {
	var backing [32]byte
	b := kc.scratch(backing[:])
	for i, s := range c.States {
		kc.putUnit(b, i, int(s)<<2|class(c.Versions[i], c.Latest))
	}
	b[kc.width-1] = keyMark | byte(class(c.MemVersion, c.Latest))
	state = keyOf(b)
	if kc.mode != ModeCounting {
		return state, state
	}
	kc.sortUnits(b)
	return state, keyOf(b)
}

// configKeys returns the keys of a configuration of n caches in declared
// states, for the edges that hold an fsm.Config.
func (kc *keyCodec) configKeys(c *fsm.Config) (state, key Key, err error) {
	var cc compile.Config
	if err := kc.cp.Encode(c, &cc); err != nil {
		return Key{}, Key{}, err
	}
	state, key = kc.keys(&cc)
	return state, key, nil
}

// decode writes the canonical configuration of the state key bytes b into
// c: each unit's state index, the version of its data class, and Latest 0.
func (kc *keyCodec) decode(b []byte, c *compile.Config) {
	c.States = c.States[:0]
	c.Versions = c.Versions[:0]
	for i := 0; i < kc.n; i++ {
		u := kc.unitAt(b, i)
		c.States = append(c.States, int32(u>>2))
		c.Versions = append(c.Versions, classVersion(u&3))
	}
	c.MemVersion = classVersion(int(b[kc.width-1] & 3))
	c.Latest = canonFresh
}

// decodeConfig is decode into an fsm.Config, reusing c's capacity.
func (kc *keyCodec) decodeConfig(b []byte, c *fsm.Config) {
	c.States = c.States[:0]
	c.Versions = c.Versions[:0]
	for i := 0; i < kc.n; i++ {
		u := kc.unitAt(b, i)
		c.States = append(c.States, kc.cp.States[u>>2])
		c.Versions = append(c.Versions, classVersion(u&3))
	}
	c.MemVersion = classVersion(int(b[kc.width-1] & 3))
	c.Latest = canonFresh
}

// config returns the configuration of a state key as a new fsm.Config.
func (kc *keyCodec) config(state *Key) *fsm.Config {
	c := &fsm.Config{States: make([]fsm.State, 0, kc.n), Versions: make([]int64, 0, kc.n)}
	kc.decodeConfig(state.bytes(kc.width), c)
	return c
}

// shadowed reports whether a lower-indexed cache of the state key bytes b
// has cache i's unit, that is, the same state and data class. Counting
// mode expands only the first cache of each class: expanding its siblings
// yields permutation-equivalent successors.
func (kc *keyCodec) shadowed(b []byte, i int) bool {
	u := kc.unitAt(b, i)
	for j := 0; j < i; j++ {
		if kc.unitAt(b, j) == u {
			return true
		}
	}
	return false
}

// tupleKey returns the state-only tuple identity (data ignored) of a state
// key, the strict tuple census key of Result.TupleStates: its units with
// the class bits cleared, in cache order in both modes, exactly like the
// legacy Config.StateKey.
func (kc *keyCodec) tupleKey(state *Key) Key {
	var backing [32]byte
	b := kc.scratch(backing[:])
	copy(b, state.bytes(kc.width))
	for i := 1; i <= kc.n; i++ {
		b[i*kc.unit-1] &^= 3
	}
	b[kc.width-1] = keyMark | tupleMark
	return keyOf(b)
}

// render returns the human-readable canonical string of a key, in exactly
// the format of strictKey and countingKey (and that checkpoints store):
// "State:v,State:v|m:v|l:0" for strict mode and the sorted
// "State:v,...|m:v" form for counting mode, with v one of the canonical
// version numbers {-1 nodata, 0 fresh, -2 obsolete}.
func (kc *keyCodec) render(k Key) string {
	b := k.bytes(kc.width)
	pairs := make([]string, kc.n)
	for i := range pairs {
		u := kc.unitAt(b, i)
		pairs[i] = string(kc.p.States[u>>2]) + ":" + strconv.FormatInt(classVersion(u&3), 10)
	}
	mem := strconv.FormatInt(classVersion(int(b[kc.width-1]&3)), 10)
	if kc.mode == ModeCounting {
		sort.Strings(pairs)
		return strings.Join(pairs, ",") + "|m:" + mem
	}
	return strings.Join(pairs, ",") + "|m:" + mem + "|l:0"
}

// renderTuple returns the state-only tuple string ("S1,S2,..."), matching
// the legacy Config.StateKey format.
func (kc *keyCodec) renderTuple(k Key) string {
	b := k.bytes(kc.width)
	parts := make([]string, kc.n)
	for i := range parts {
		parts[i] = string(kc.p.States[kc.unitAt(b, i)>>2])
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
	fields := strings.Split(s, "|")
	pairs := strings.Split(fields[0], ",")
	if len(pairs) != kc.n {
		return Key{}, fmt.Errorf("enum: state key %q has %d caches, want %d", s, len(pairs), kc.n)
	}
	var backing [32]byte
	b := kc.scratch(backing[:])
	for i, pair := range pairs {
		name, ver, err := splitPair(pair)
		if err != nil {
			return Key{}, fmt.Errorf("enum: state key %q: %w", s, err)
		}
		st := kc.cp.StateIndex(fsm.State(name))
		if st < 0 {
			return Key{}, fmt.Errorf("enum: state key %q references unknown state %q", s, name)
		}
		kc.putUnit(b, i, st<<2|class(ver, canonFresh))
	}
	mem := canonFresh
	for _, f := range fields[1:] {
		if rest, ok := strings.CutPrefix(f, "m:"); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return Key{}, fmt.Errorf("enum: state key %q: bad memory version %q", s, rest)
			}
			mem = v
		}
	}
	b[kc.width-1] = keyMark | byte(class(mem, canonFresh))
	if kc.mode == ModeCounting {
		kc.sortUnits(b)
	}
	return keyOf(b), nil
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
