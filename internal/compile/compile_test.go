package compile

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/ckptio"
	"repro/internal/fsm"
	"repro/internal/mutate"
)

// specProtocol loads one shipped spec by file name. The specs are pinned
// in sync with the built-in Go definitions, and loading them directly
// keeps this package's tests free of the protocols registry (which imports
// this package for .ccfsm corpus loading).
func specProtocol(t testing.TB, name string) *fsm.Protocol {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", name+".ccpsl"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ccpsl.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// corpus returns every shipped spec plus every mutant of it — the full
// population the compile-parity guarantees are pinned over.
func corpus(t testing.TB) []*fsm.Protocol {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.ccpsl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	sort.Strings(paths)
	var out []*fsm.Protocol
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ccpsl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, p)
		for _, m := range mutate.Catalog(p) {
			out = append(out, m.Protocol)
		}
	}
	return out
}

// TestStepParity drives the interpreted fsm.Step and the compiled Step
// through identical random walks over every spec and every mutant,
// asserting identical configurations, step results and error text after
// every reference. This is the ground truth the engine-level parity suites
// (enum, symbolic) build on.
func TestStepParity(t *testing.T) {
	for _, p := range corpus(t) {
		cp, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		rng := rand.New(rand.NewSource(int64(len(p.Name)) * 7919))
		for _, n := range []int{1, 2, 4} {
			ic := fsm.NewConfig(p, n)
			cc := cp.NewConfig(n)
			for step := 0; step < 400; step++ {
				origin := rng.Intn(n)
				op := p.Ops[rng.Intn(len(p.Ops))]
				iw := ic.Clone()
				ires, ierr := fsm.Step(p, iw, origin, op)
				cw := &Config{}
				cw.CopyFrom(cc)
				cres, cerr := cp.Step(cw, origin, cp.OpIndex(op))
				if (ierr == nil) != (cerr == nil) {
					t.Fatalf("%s n=%d step %d: error mismatch: interpreted=%v compiled=%v", p.Name, n, step, ierr, cerr)
				}
				if ierr != nil {
					if ierr.Error() != cerr.Error() {
						t.Fatalf("%s n=%d step %d: error text drift:\n  interpreted: %s\n  compiled:    %s",
							p.Name, n, step, ierr, cerr)
					}
					continue // both paths leave their configs unchanged
				}
				got := cp.Result(cres)
				if got.ReadVersion != ires.ReadVersion || got.Supplier != ires.Supplier ||
					(got.Rule == nil) != (ires.Rule == nil) ||
					(got.Rule != nil && got.Rule.Name != ires.Rule.Name) {
					t.Fatalf("%s n=%d step %d: result mismatch: interpreted=%+v compiled=%+v", p.Name, n, step, ires, got)
				}
				var back fsm.Config
				cp.Decode(cw, &back)
				if back.Key() != iw.Key() {
					t.Fatalf("%s n=%d step %d (%s@%d): config drift:\n  interpreted: %s\n  compiled:    %s",
						p.Name, n, step, op, origin, iw.Key(), back.Key())
				}
				ic, cc = iw, cw
			}
		}
	}
}

// TestEncodeDecodeIdentity asserts Encode∘Decode is the identity on
// configurations reached by real walks.
func TestEncodeDecodeIdentity(t *testing.T) {
	p := specProtocol(t, "illinois")
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ic := fsm.NewConfig(p, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		if _, err := fsm.Step(p, ic, rng.Intn(3), p.Ops[rng.Intn(len(p.Ops))]); err != nil {
			t.Fatal(err)
		}
		var enc Config
		if err := cp.Encode(ic, &enc); err != nil {
			t.Fatal(err)
		}
		var dec fsm.Config
		cp.Decode(&enc, &dec)
		if dec.Key() != ic.Key() {
			t.Fatalf("round trip drift: %s vs %s", ic.Key(), dec.Key())
		}
	}
}

// TestJumpTablesMatchRulesFor pins the compiled dispatch against the
// interpreted index for every (state, op) pair of every protocol.
func TestJumpTablesMatchRulesFor(t *testing.T) {
	for _, p := range corpus(t) {
		cp, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for si, s := range p.States {
			for oi, op := range p.Ops {
				want := p.RulesFor(s, op)
				got := cp.RuleIDs(si, oi)
				if len(want) != len(got) {
					t.Fatalf("%s (%s,%s): %d interpreted rules vs %d compiled", p.Name, s, op, len(want), len(got))
				}
				for k, r := range want {
					if cp.RulePtr(got[k]) != r {
						t.Fatalf("%s (%s,%s): rule %d order drift", p.Name, s, op, k)
					}
				}
			}
		}
	}
}

// TestBinaryRoundTrip: encode → decode → re-encode must be byte-identical
// for every spec and every mutant, and the decoded protocol must be deeply
// equal to the source (up to the unexported lazy indexes, hence Clone).
func TestBinaryRoundTrip(t *testing.T) {
	for _, p := range corpus(t) {
		data, err := EncodeBinary(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		q, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		if ccpsl.Format(p) != ccpsl.Format(q) {
			t.Fatalf("%s: canonical rendering drifted through the binary round trip", p.Name)
		}
		if !reflect.DeepEqual(p.Clone(), q.Clone()) {
			t.Fatalf("%s: decoded protocol differs structurally", p.Name)
		}
		again, err := EncodeBinary(q)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", p.Name, err)
		}
		if string(again) != string(data) {
			t.Fatalf("%s: re-encode is not byte-identical (%d vs %d bytes)", p.Name, len(again), len(data))
		}
	}
}

// TestBinaryGolden pins the exact .ccfsm bytes of the illinois spec via the
// ckptio envelope header (which embeds the payload CRC32 and length): any
// unintentional format change breaks this test, and an intentional one must
// bump BinaryVersion and re-pin.
func TestBinaryGolden(t *testing.T) {
	p := specProtocol(t, "illinois")
	data, err := EncodeBinary(p)
	if err != nil {
		t.Fatal(err)
	}
	nl := 0
	for nl < len(data) && data[nl] != '\n' {
		nl++
	}
	const want = "ccckpt v1 crc32=372bcba5 len=543"
	if got := string(data[:nl]); got != want {
		t.Fatalf(".ccfsm golden drift for illinois:\n  got  %q\n  want %q\n"+
			"(an intentional format change must bump compile.BinaryVersion and re-pin this header)", got, want)
	}
}

// TestDecodeRejectsUnknownVersion checks the typed version error.
func TestDecodeRejectsUnknownVersion(t *testing.T) {
	p := specProtocol(t, "msi")
	data, err := EncodeBinary(p)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ckptio.Decode("t", data)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), payload...)
	raw[len(ccfsmMagic)] = 99 // version byte
	_, err = DecodeBinary(ckptio.Encode(raw))
	var uv *UnsupportedVersionError
	if !errors.As(err, &uv) || uv.Version != 99 {
		t.Fatalf("want *UnsupportedVersionError{99}, got %v", err)
	}
}

// TestDecodeRejectsGarbage checks the typed corruption errors on the easy
// cases; FuzzDecodeBinary covers the long tail.
func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeBinary([]byte("not an envelope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeBinary(ckptio.Encode([]byte("WRONG magic here"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	p := specProtocol(t, "msi")
	data, _ := EncodeBinary(p)
	payload, _ := ckptio.Decode("t", data)
	for cut := len(ccfsmMagic) + 1; cut < len(payload); cut += 13 {
		truncated := ckptio.Encode(payload[:cut])
		if _, err := DecodeBinary(truncated); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDecodeRejectsDuplicateInvariantState: a .ccfsm payload listing a
// state twice in an invariant set decodes to a CorruptError wrapping the
// typed validation error. The payload is made by encoding two valid
// protocols that differ in one owner, and pointing the differing index at
// the other owner.
func TestDecodeRejectsDuplicateInvariantState(t *testing.T) {
	payloadWithOwners := func(owners ...fsm.State) []byte {
		p := specProtocol(t, "illinois").Clone()
		p.Inv.Owners = owners
		data, err := EncodeBinary(p)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ckptio.Decode("t", data)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(payload)
	}
	a := payloadWithOwners("Dirty", "Shared")
	b := payloadWithOwners("Dirty", "Valid-Exclusive")
	if len(a) != len(b) {
		t.Fatalf("payload lengths differ: %d vs %d", len(a), len(b))
	}
	diff := -1
	for i := range a {
		if a[i] != b[i] {
			if diff >= 0 {
				t.Fatal("payloads differ in more than one byte")
			}
			diff = i
		}
	}
	if diff < 0 {
		t.Fatal("payloads are identical")
	}
	p := specProtocol(t, "illinois")
	a[diff] = byte(slices.Index(p.States, "Dirty"))
	_, err := DecodeBinary(ckptio.Encode(a))
	var corrupt *CorruptError
	var dup *fsm.DuplicateInvariantError
	if !errors.As(err, &corrupt) || !errors.As(err, &dup) || dup.Set != "Owners" || dup.State != "Dirty" {
		t.Fatalf("want a CorruptError wrapping DuplicateInvariantError{Owners, Dirty}, got %v", err)
	}
}

// FuzzDecodeBinary asserts the decoder never panics and either returns a
// valid protocol or an error, for arbitrary payload bytes (the envelope is
// applied so the fuzzer exercises the format decoder, not just the CRC).
func FuzzDecodeBinary(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.ccpsl"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no specs found: %v", err)
	}
	sort.Strings(paths)
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		p, err := ccpsl.Parse(string(src))
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeBinary(p)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := ckptio.Decode("seed", data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(payload))
	}
	f.Add([]byte(ccfsmMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, err := DecodeBinary(ckptio.Encode(payload))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder returned invalid protocol: %v", err)
		}
	})
}
