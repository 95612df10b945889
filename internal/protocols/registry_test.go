package protocols

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
)

func TestCanonicalName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"illinois", "illinois"},
		{"Illinois", "illinois"},
		{"  WRITE ONCE ", "write-once"},
		{"write_once", "write-once"},
		{"Lock-MSI", "lock-msi"},
	} {
		if got := canonicalName(tc.in); got != tc.want {
			t.Errorf("canonicalName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestByNameMixedCase pins the registration/lookup contract end to end:
// every registered protocol resolves under its display name, its upper-case
// form and underscore/space variants, to the same definition.
func TestByNameMixedCase(t *testing.T) {
	for _, name := range Names() {
		base, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []string{
			strings.ToUpper(name),
			" " + name + " ",
			strings.ReplaceAll(name, "-", "_"),
			strings.ReplaceAll(name, "-", " "),
		} {
			p, err := ByName(variant)
			if err != nil {
				t.Errorf("ByName(%q): %v", variant, err)
				continue
			}
			if p.Name != base.Name {
				t.Errorf("ByName(%q) = %s, want %s", variant, p.Name, base.Name)
			}
		}
	}
}

// unregister removes a runtime registration so tests leave the global
// registry as they found it regardless of execution order.
func unregister(t *testing.T, name string) {
	t.Helper()
	t.Cleanup(func() {
		mu.Lock()
		delete(registry, canonicalName(name))
		mu.Unlock()
	})
}

// registerTestProto builds a small valid protocol under a unique name and
// registers it, failing the test on error.
func registerTestProto(t *testing.T, name string) *fsm.Protocol {
	t.Helper()
	p, err := ByName("msi")
	if err != nil {
		t.Fatal(err)
	}
	p.Name = name
	if err := Register(p); err != nil {
		t.Fatal(err)
	}
	unregister(t, name)
	return p
}

func TestRegisterAndLookup(t *testing.T) {
	p := registerTestProto(t, "Registry-Test-MSI")
	got, err := ByName("registry_test_msi")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name {
		t.Errorf("name = %s, want %s", got.Name, p.Name)
	}
	// Builders must hand out independent copies.
	other, err := ByName("registry-test-msi")
	if err != nil {
		t.Fatal(err)
	}
	if got == other || &got.Rules[0] == &other.Rules[0] {
		t.Error("registered builder returned aliased instances")
	}
	if !reflect.DeepEqual(got.States, other.States) {
		t.Error("copies disagree")
	}
	// Names that are taken, built-in or registered, are refused.
	if err := Register(p); err == nil {
		t.Error("re-registering a taken name must error")
	}
	msi, _ := ByName("msi")
	if err := Register(msi); err == nil {
		t.Error("shadowing a built-in must error")
	}
	found := false
	for _, n := range Names() {
		if n == "registry-test-msi" {
			found = true
		}
	}
	if !found {
		t.Error("registered name missing from Names()")
	}
}

// TestLoadDir drives the -spec-dir loader over ccpsl files: it registers
// every *.ccpsl under its canonical name, ignores other files, and fails,
// naming the file, on a duplicate, an unparsable or misnamed spec, a
// missing directory, or a leftover file in the removed .ccfsm format.
func TestLoadDir(t *testing.T) {
	synapse, err := ByName("synapse")
	if err != nil {
		t.Fatal(err)
	}
	renamed := func(name string) string {
		p := synapse.Clone()
		p.Name = name
		return ccpsl.Format(p)
	}
	write := func(dir, file, body string) string {
		t.Helper()
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dir := t.TempDir()
	write(dir, "loaddir-a.ccpsl", renamed("LoadDir-A"))
	write(dir, "loaddir-b.ccpsl", renamed("LoadDir-B"))
	write(dir, "README.txt", "not a spec")
	added, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range added {
		unregister(t, name)
	}
	want := []string{"loaddir-a", "loaddir-b"}
	if !reflect.DeepEqual(added, want) {
		t.Fatalf("added = %v, want %v", added, want)
	}
	for _, name := range want {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q) after LoadDir: %v", name, err)
		}
		if len(p.Rules) != len(synapse.Rules) {
			t.Errorf("%s: %d rules, want synapse's %d", name, len(p.Rules), len(synapse.Rules))
		}
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("reloading the same directory: err %v, want a duplicate-name error", err)
	}

	for _, tc := range []struct {
		name, file, body, want string
	}{
		{"unparsable", "loaddir-c.ccpsl", "protocol LoadDir-C\nstates {", "loaddir-c.ccpsl"},
		{"misnamed", "other-name.ccpsl", renamed("LoadDir-D"), "want a file named loaddir-d.ccpsl"},
		{"ccfsm", "loaddir-e.ccfsm", "ccckpt v1 crc32=00000000 len=0\n", ".ccfsm format is no longer supported"},
	} {
		bad := t.TempDir()
		path := write(bad, tc.file, tc.body)
		_, err := LoadDir(bad)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one naming %s and saying %q", tc.name, err, path, tc.want)
		}
	}
	for _, name := range []string{"loaddir-c", "loaddir-d"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("%s registered by a failed load", name)
		}
	}
	if _, err := LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing directory must error")
	}
}

// TestLoadDirAllOrNothing loads a directory holding a good spec next to a
// misnamed one. The load must fail naming the bad file and register
// nothing, so that once the bad file is removed the same directory loads.
func TestLoadDirAllOrNothing(t *testing.T) {
	moesi, err := ByName("moesi")
	if err != nil {
		t.Fatal(err)
	}
	spec := func(name string) []byte {
		p := moesi.Clone()
		p.Name = name
		return []byte(ccpsl.Format(p))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "site-moesi.ccpsl"), spec("Site-MOESI"), 0o644); err != nil {
		t.Fatal(err)
	}
	wrong := filepath.Join(dir, "wrong.ccpsl")
	if err := os.WriteFile(wrong, spec("Site-Other"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := Names()
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), wrong) {
		t.Fatalf("LoadDir with a misnamed file: err %v, want one naming %s", err, wrong)
	}
	if after := Names(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a failed load changed the registry: %v, was %v", after, before)
	}
	if err := os.Remove(wrong); err != nil {
		t.Fatal(err)
	}
	added, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("retrying after removing the bad file: %v", err)
	}
	for _, name := range added {
		unregister(t, name)
	}
	if want := []string{"site-moesi"}; !reflect.DeepEqual(added, want) {
		t.Fatalf("added = %v, want %v", added, want)
	}
}
