package protocols_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/protocols"
	"repro/internal/symbolic"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/builtin_digests.txt from the current registry")

const digestPath = "testdata/builtin_digests.txt"

// TestBuiltinDigests pins every built-in protocol two ways: the SHA-256
// of its ccpsl rendering, and its symbolic essential-state and visit
// counts. A change to any built-in definition, or to how one is loaded,
// shows up here.
func TestBuiltinDigests(t *testing.T) {
	var b strings.Builder
	for _, name := range protocols.Names() {
		p, err := protocols.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := symbolic.Expand(p, symbolic.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s ccpsl=%x essential=%d visits=%d\n",
			name, sha256.Sum256([]byte(ccpsl.Format(p))), len(res.Essential), res.Visits)
	}
	got := b.String()
	if *updateDigests {
		if err := os.WriteFile(digestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("built-in digests drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}
