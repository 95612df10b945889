package enum

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/protocols"
	"repro/internal/runctl"
)

// TestStaleSpillFilesSweptAtStartup: a budgeted run that failed or was
// killed leaves spill-*.bin files behind; because checkpoints are
// self-contained they are garbage, and a later run pointed at the same
// spill directory must remove them before writing its own (otherwise a
// long-lived spill directory accumulates dead files forever, and colliding
// sequence numbers could mix two runs' visited sets).
func TestStaleSpillFilesSweptAtStartup(t *testing.T) {
	dir := t.TempDir()
	stale := []string{"spill-visited-0003.bin", "spill-tuples-0003.bin"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk from a dead run"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign file in the directory is none of our business.
	keep := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(keep, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	p, err := protocols.Synthetic(3)
	if err != nil {
		t.Fatal(err)
	}
	// A generous budget: the run arms out-of-core mode (which sweeps) but
	// never actually spills, keeping the test fast.
	if _, err := ExhaustiveParallelContext(context.Background(), p, 3, Options{
		Strict:    true,
		RunConfig: runctl.RunConfig{Budget: runctl.Budget{MaxBytes: 1 << 30}, SpillDir: dir},
	}, 2); err != nil {
		t.Fatal(err)
	}

	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale %s survived startup", name)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("foreign file was swept: %v", err)
	}
}
