package compile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/ckptio"
	"repro/internal/fsm"
)

// The .ccfsm interchange format carries one protocol specification in a
// compact, versioned binary layout so corpora of thousands of protocols
// (randproto sweeps) load without re-parsing ccpsl. The payload is
//
//	magic "CCFSM" | u8 version | string table | protocol sections
//
// wrapped in the ckptio CRC32 envelope, so corruption is detected the same
// way engine checkpoints detect it. All integers are unsigned varints; all
// state references are indexes into the state section, all strings are
// indexes into the string table. Encoding is deterministic: encoding the
// decode of an encoding reproduces the bytes exactly (pinned by the
// round-trip golden test). Decoders reject unknown format versions with a
// typed *UnsupportedVersionError, never by guessing.

// ccfsmMagic opens every .ccfsm payload (inside the envelope).
const ccfsmMagic = "CCFSM"

// BinaryVersion is the current .ccfsm format version.
const BinaryVersion = 1

// ErrBadMagic reports bytes that are not a .ccfsm payload at all.
var ErrBadMagic = errors.New("compile: not a .ccfsm payload (bad magic)")

// UnsupportedVersionError reports a .ccfsm payload written by a newer (or
// unknown) format version.
type UnsupportedVersionError struct {
	Version int
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("compile: unsupported .ccfsm format version %d (this build reads version %d)",
		e.Version, BinaryVersion)
}

// CorruptError reports a structurally invalid .ccfsm payload: truncated
// sections, out-of-range indexes, or a decoded protocol that fails
// validation, in which case Err is the validation error.
type CorruptError struct {
	Reason string
	Err    error
}

func (e *CorruptError) Error() string {
	return "compile: corrupt .ccfsm payload: " + e.Reason
}

func (e *CorruptError) Unwrap() error { return e.Err }

// guard flag bits of the rule data-effect section.
const (
	flagSupplierWriteBack = 1 << iota
	flagStore
	flagWriteThrough
	flagUpdateSharers
	flagWriteBackSelf
	flagDropSelf
	flagSpin
)

// binWriter accumulates the payload.
type binWriter struct {
	buf []byte
}

func (w *binWriter) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *binWriter) byte(b byte) { w.buf = append(w.buf, b) }

func (w *binWriter) bytes(b []byte) { w.buf = append(w.buf, b...) }

// strTab interns strings in first-use order, the deterministic layout the
// round-trip golden pins.
type strTab struct {
	order []string
	idx   map[string]uint64
}

func (t *strTab) intern(s string) uint64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	if t.idx == nil {
		t.idx = map[string]uint64{}
	}
	i := uint64(len(t.order))
	t.order = append(t.order, s)
	t.idx[s] = i
	return i
}

// EncodeBinary renders a validated protocol as a .ccfsm byte stream,
// including the ckptio envelope. The encoding is deterministic: the string
// table interns the protocol name, states, ops and rule names in first-use
// order, and observe maps are serialized in canonical state order.
func EncodeBinary(p *fsm.Protocol) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	stateIdx := make(map[fsm.State]uint64, len(p.States))
	for i, s := range p.States {
		stateIdx[s] = uint64(i)
	}
	opIdx := make(map[fsm.Op]uint64, len(p.Ops))
	for i, o := range p.Ops {
		opIdx[o] = uint64(i)
	}

	var tab strTab
	tab.intern(p.Name)
	for _, s := range p.States {
		tab.intern(string(s))
	}
	for _, o := range p.Ops {
		tab.intern(string(o))
	}
	for i := range p.Rules {
		tab.intern(p.Rules[i].Name)
	}

	var w binWriter
	w.bytes([]byte(ccfsmMagic))
	w.byte(BinaryVersion)

	w.uvarint(uint64(len(tab.order)))
	for _, s := range tab.order {
		w.uvarint(uint64(len(s)))
		w.bytes([]byte(s))
	}

	w.uvarint(tab.intern(p.Name))
	w.byte(byte(p.Characteristic))
	w.uvarint(uint64(len(p.States)))
	for _, s := range p.States {
		w.uvarint(tab.intern(string(s)))
	}
	w.uvarint(stateIdx[p.Initial])
	w.uvarint(uint64(len(p.Ops)))
	for _, o := range p.Ops {
		w.uvarint(tab.intern(string(o)))
	}

	writeSet := func(states []fsm.State) {
		w.uvarint(uint64(len(states)))
		for _, s := range states {
			w.uvarint(stateIdx[s])
		}
	}
	writeSet(p.Inv.Exclusive)
	writeSet(p.Inv.Owners)
	writeSet(p.Inv.Readable)
	writeSet(p.Inv.ValidCopy)
	writeSet(p.Inv.CleanShared)

	w.uvarint(uint64(len(p.Rules)))
	for i := range p.Rules {
		r := &p.Rules[i]
		w.uvarint(tab.intern(r.Name))
		w.uvarint(stateIdx[r.From])
		w.uvarint(opIdx[r.On])
		w.byte(byte(r.Guard.Kind))
		writeSet(r.Guard.States)
		w.uvarint(stateIdx[r.Next])
		// Observe pairs in canonical state order; identity entries present
		// in the source map are preserved so re-encoding is byte-identical.
		pairs := 0
		for _, s := range p.States {
			if _, ok := r.Observe[s]; ok {
				pairs++
			}
		}
		w.uvarint(uint64(pairs))
		for _, s := range p.States {
			if to, ok := r.Observe[s]; ok {
				w.uvarint(stateIdx[s])
				w.uvarint(stateIdx[to])
			}
		}
		w.byte(byte(r.Data.Source))
		writeSet(r.Data.Suppliers)
		var flags byte
		if r.Data.SupplierWriteBack {
			flags |= flagSupplierWriteBack
		}
		if r.Data.Store {
			flags |= flagStore
		}
		if r.Data.WriteThrough {
			flags |= flagWriteThrough
		}
		if r.Data.UpdateSharers {
			flags |= flagUpdateSharers
		}
		if r.Data.WriteBackSelf {
			flags |= flagWriteBackSelf
		}
		if r.Data.DropSelf {
			flags |= flagDropSelf
		}
		if r.Data.Spin {
			flags |= flagSpin
		}
		w.byte(flags)
	}

	return ckptio.Encode(w.buf), nil
}

// binReader walks the payload with bounds checking; every failure is a
// *CorruptError.
type binReader struct {
	buf []byte
	off int
}

func (r *binReader) fail(reason string) error { return &CorruptError{Reason: reason} }

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.fail("truncated varint")
	}
	r.off += n
	return v, nil
}

func (r *binReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, r.fail("truncated byte")
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *binReader) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.buf)-r.off) {
		return nil, r.fail("truncated section")
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// maxDecodeItems bounds every decoded count so a malicious or fuzzed
// payload cannot force pathological allocations before the bounds checks
// catch the truncation.
const maxDecodeItems = 1 << 20

func (r *binReader) count(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxDecodeItems {
		return 0, r.fail(fmt.Sprintf("%s count %d exceeds limit", what, v))
	}
	return int(v), nil
}

// DecodeBinary parses a .ccfsm byte stream (envelope included) back into a
// validated fsm.Protocol. Unknown envelope or format versions fail with the
// corresponding typed error; structural damage fails with *CorruptError or
// ckptio's *CorruptError.
func DecodeBinary(data []byte) (*fsm.Protocol, error) {
	payload, err := ckptio.Decode(".ccfsm", data)
	if err != nil {
		return nil, err
	}
	r := &binReader{buf: payload}
	magic, err := r.take(uint64(len(ccfsmMagic)))
	if err != nil || string(magic) != ccfsmMagic {
		return nil, ErrBadMagic
	}
	ver, err := r.byte()
	if err != nil {
		return nil, err
	}
	if ver != BinaryVersion {
		return nil, &UnsupportedVersionError{Version: int(ver)}
	}

	nstr, err := r.count("string table")
	if err != nil {
		return nil, err
	}
	strs := make([]string, nstr)
	for i := range strs {
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.take(n)
		if err != nil {
			return nil, err
		}
		strs[i] = string(b)
	}
	str := func() (string, error) {
		i, err := r.uvarint()
		if err != nil {
			return "", err
		}
		if i >= uint64(len(strs)) {
			return "", r.fail("string index out of range")
		}
		return strs[i], nil
	}

	p := &fsm.Protocol{}
	if p.Name, err = str(); err != nil {
		return nil, err
	}
	ch, err := r.byte()
	if err != nil {
		return nil, err
	}
	p.Characteristic = fsm.CharKind(ch)
	if p.Characteristic != fsm.CharNull && p.Characteristic != fsm.CharSharing {
		return nil, r.fail(fmt.Sprintf("unknown characteristic %d", ch))
	}

	nstates, err := r.count("state")
	if err != nil {
		return nil, err
	}
	p.States = make([]fsm.State, nstates)
	for i := range p.States {
		s, err := str()
		if err != nil {
			return nil, err
		}
		p.States[i] = fsm.State(s)
	}
	state := func() (fsm.State, error) {
		i, err := r.uvarint()
		if err != nil {
			return "", err
		}
		if i >= uint64(len(p.States)) {
			return "", r.fail("state index out of range")
		}
		return p.States[i], nil
	}
	if p.Initial, err = state(); err != nil {
		return nil, err
	}

	nops, err := r.count("op")
	if err != nil {
		return nil, err
	}
	p.Ops = make([]fsm.Op, nops)
	for i := range p.Ops {
		s, err := str()
		if err != nil {
			return nil, err
		}
		p.Ops[i] = fsm.Op(s)
	}

	readSet := func(what string) ([]fsm.State, error) {
		n, err := r.count(what)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil
		}
		out := make([]fsm.State, n)
		for i := range out {
			if out[i], err = state(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if p.Inv.Exclusive, err = readSet("exclusive set"); err != nil {
		return nil, err
	}
	if p.Inv.Owners, err = readSet("owners set"); err != nil {
		return nil, err
	}
	if p.Inv.Readable, err = readSet("readable set"); err != nil {
		return nil, err
	}
	if p.Inv.ValidCopy, err = readSet("valid-copy set"); err != nil {
		return nil, err
	}
	if p.Inv.CleanShared, err = readSet("clean-shared set"); err != nil {
		return nil, err
	}

	nrules, err := r.count("rule")
	if err != nil {
		return nil, err
	}
	p.Rules = make([]fsm.Rule, nrules)
	for i := range p.Rules {
		rl := &p.Rules[i]
		if rl.Name, err = str(); err != nil {
			return nil, err
		}
		if rl.From, err = state(); err != nil {
			return nil, err
		}
		oi, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if oi >= uint64(len(p.Ops)) {
			return nil, r.fail("op index out of range")
		}
		rl.On = p.Ops[oi]
		gk, err := r.byte()
		if err != nil {
			return nil, err
		}
		rl.Guard.Kind = fsm.GuardKind(gk)
		switch rl.Guard.Kind {
		case fsm.GuardAlways, fsm.GuardAnyOther, fsm.GuardNoOther:
		default:
			return nil, r.fail(fmt.Sprintf("unknown guard kind %d", gk))
		}
		if rl.Guard.States, err = readSet("guard set"); err != nil {
			return nil, err
		}
		if rl.Next, err = state(); err != nil {
			return nil, err
		}
		npairs, err := r.count("observe")
		if err != nil {
			return nil, err
		}
		if npairs > 0 {
			rl.Observe = make(map[fsm.State]fsm.State, npairs)
			for k := 0; k < npairs; k++ {
				from, err := state()
				if err != nil {
					return nil, err
				}
				to, err := state()
				if err != nil {
					return nil, err
				}
				rl.Observe[from] = to
			}
		}
		src, err := r.byte()
		if err != nil {
			return nil, err
		}
		rl.Data.Source = fsm.DataSource(src)
		switch rl.Data.Source {
		case fsm.SrcNone, fsm.SrcKeep, fsm.SrcMemory, fsm.SrcCache:
		default:
			return nil, r.fail(fmt.Sprintf("unknown data source %d", src))
		}
		if rl.Data.Suppliers, err = readSet("suppliers set"); err != nil {
			return nil, err
		}
		flags, err := r.byte()
		if err != nil {
			return nil, err
		}
		rl.Data.SupplierWriteBack = flags&flagSupplierWriteBack != 0
		rl.Data.Store = flags&flagStore != 0
		rl.Data.WriteThrough = flags&flagWriteThrough != 0
		rl.Data.UpdateSharers = flags&flagUpdateSharers != 0
		rl.Data.WriteBackSelf = flags&flagWriteBackSelf != 0
		rl.Data.DropSelf = flags&flagDropSelf != 0
		rl.Data.Spin = flags&flagSpin != 0
	}
	if r.off != len(r.buf) {
		return nil, r.fail(fmt.Sprintf("%d trailing bytes after protocol", len(r.buf)-r.off))
	}
	if err := p.Validate(); err != nil {
		return nil, &CorruptError{Reason: "decoded protocol invalid: " + err.Error(), Err: err}
	}
	return p, nil
}

// WriteFile encodes p and writes it to path.
func WriteFile(path string, p *fsm.Protocol) error {
	data, err := EncodeBinary(p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile decodes a protocol from a .ccfsm file.
func ReadFile(path string) (*fsm.Protocol, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := DecodeBinary(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
