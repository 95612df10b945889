package ckptio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func storeAt(t *testing.T, keep int) *Store {
	t.Helper()
	return &Store{Path: filepath.Join(t.TempDir(), "run.ckpt"), Keep: keep}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := storeAt(t, 3)
	payload := []byte(`{"version":2,"hello":"world"}`)
	if err := s.Save(payload); err != nil {
		t.Fatal(err)
	}
	got, info, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	if info.Generation != 0 || len(info.Skipped) != 0 {
		t.Fatalf("info = %+v, want pristine generation 0", info)
	}
}

func TestRotationKeepsLastK(t *testing.T) {
	s := storeAt(t, 3)
	for i := 1; i <= 5; i++ {
		if err := s.Save([]byte(fmt.Sprintf(`{"gen":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	// Newest three snapshots survive: 5 at .0, 4 at .1, 3 at .2.
	for gen, want := range map[int]string{0: `{"gen":5}`, 1: `{"gen":4}`, 2: `{"gen":3}`} {
		data, err := os.ReadFile(s.GenPath(gen))
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		payload, err := Decode(s.GenPath(gen), data)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if string(payload) != want {
			t.Fatalf("generation %d = %s, want %s", gen, payload, want)
		}
	}
	// Nothing beyond Keep generations.
	if _, err := os.Stat(s.GenPath(3)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("generation 3 should not exist, stat err = %v", err)
	}
}

func TestLoadFallsBackPastCorruptNewest(t *testing.T) {
	s := storeAt(t, 3)
	if err := s.Save([]byte(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte(`{"gen":2}`)); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the newest snapshot.
	data, err := os.ReadFile(s.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(s.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	payload, info, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != `{"gen":1}` {
		t.Fatalf("payload = %s, want the prior generation", payload)
	}
	if info.Generation != 1 || len(info.Skipped) != 1 {
		t.Fatalf("info = %+v, want generation 1 with one skip", info)
	}
	if !errors.Is(info.Skipped[0], ErrCorrupt) {
		t.Fatalf("skip reason = %v, want ErrCorrupt", info.Skipped[0])
	}
}

func TestLoadFallsBackPastDeletedNewest(t *testing.T) {
	s := storeAt(t, 3)
	if err := s.Save([]byte(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte(`{"gen":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.Path); err != nil {
		t.Fatal(err)
	}
	payload, info, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != `{"gen":1}` || info.Generation != 1 {
		t.Fatalf("payload = %s (gen %d), want prior generation", payload, info.Generation)
	}
}

func TestLoadNoSnapshot(t *testing.T) {
	s := storeAt(t, 3)
	_, info, err := s.Load()
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	if info == nil {
		t.Fatal("info must be non-nil on failure")
	}
}

// TestLegacyBarePayload: a bare JSON file (the pre-envelope checkpoint
// format) carries no checksum, so it is corrupt like any other file
// without the envelope, and Load falls back to the older good generation.
func TestLegacyBarePayload(t *testing.T) {
	s := storeAt(t, 3)
	good := []byte(`{"gen":1}`)
	if err := s.Save(good); err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte(`{"gen":2}`)); err != nil {
		t.Fatal(err)
	}
	bare := []byte(`{"version":2,"plain":"pre-envelope checkpoint"}`)
	if err := os.WriteFile(s.Path, bare, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(s.Path, bare); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode(bare) err = %v, want ErrCorrupt", err)
	}
	payload, info, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, good) || info.Generation != 1 || len(info.Skipped) != 1 {
		t.Fatalf("payload = %q info = %+v, want generation 1 after skipping the bare file", payload, info)
	}
	if !errors.Is(info.Skipped[0], ErrCorrupt) {
		t.Fatalf("skipped = %v, want ErrCorrupt", info.Skipped[0])
	}
}

func TestUnsupportedEnvelopeVersion(t *testing.T) {
	s := storeAt(t, 1)
	future := fmt.Sprintf("%sv%d crc32=00000000 len=0\n", headerMagic, EnvelopeVersion+1)
	if err := os.WriteFile(s.Path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	_, info, err := s.Load()
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	if len(info.Skipped) != 1 || !errors.Is(info.Skipped[0], ErrUnsupportedVersion) {
		t.Fatalf("skipped = %v, want one ErrUnsupportedVersion", info.Skipped)
	}
	var ve *UnsupportedVersionError
	if !errors.As(info.Skipped[0], &ve) || ve.Version != EnvelopeVersion+1 {
		t.Fatalf("skip error %v should carry the found version", info.Skipped[0])
	}
}

// TestCrashRecoveryAtEveryBoundary is the crash-recovery coverage test:
// with two good snapshots on disk, truncating the newest at every 64-byte
// boundary — or flipping a byte there — must either recover the prior good
// snapshot or fail with the typed, versioned corruption error. Garbage
// must never be returned as a valid payload.
func TestCrashRecoveryAtEveryBoundary(t *testing.T) {
	prior := []byte(`{"version":2,"gen":"prior","pad":"` + string(bytes.Repeat([]byte("p"), 200)) + `"}`)
	newest := []byte(`{"version":2,"gen":"newest","pad":"` + string(bytes.Repeat([]byte("n"), 200)) + `"}`)

	for _, damage := range []string{"truncate", "flip"} {
		s := storeAt(t, 2)
		if err := s.Save(prior); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(newest); err != nil {
			t.Fatal(err)
		}
		pristine, err := os.ReadFile(s.Path)
		if err != nil {
			t.Fatal(err)
		}

		for off := 0; off < len(pristine); off += 64 {
			var damaged []byte
			switch damage {
			case "truncate":
				damaged = pristine[:off]
			case "flip":
				damaged = append([]byte(nil), pristine...)
				damaged[off] ^= 0x01
			}
			if err := os.WriteFile(s.Path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}

			payload, info, err := s.Load()
			switch {
			case err == nil && bytes.Equal(payload, newest) && info.Generation == 0:
				// Damage missed anything load-bearing (possible for a bit
				// flip in padding? — CRC makes this impossible; truncation
				// at len(pristine) is the undamaged file).
				if damage == "flip" && off < len(pristine) {
					t.Errorf("%s at %d: corrupt newest validated", damage, off)
				}
			case err == nil:
				// Recovered: must be exactly the prior good snapshot.
				if !bytes.Equal(payload, prior) {
					t.Errorf("%s at %d: recovered payload = %q, want prior snapshot", damage, off, payload)
				}
				if info.Generation != 1 || len(info.Skipped) == 0 {
					t.Errorf("%s at %d: info = %+v, want fallback to generation 1", damage, off, info)
				}
				if !errors.Is(info.Skipped[0], ErrCorrupt) {
					t.Errorf("%s at %d: skip reason = %v, want typed ErrCorrupt", damage, off, info.Skipped[0])
				}
				var ce *CorruptError
				if !errors.As(info.Skipped[0], &ce) {
					t.Errorf("%s at %d: skip reason %T is not a *CorruptError", damage, off, info.Skipped[0])
				}
			default:
				t.Errorf("%s at %d: no recovery although a good prior snapshot exists: %v", damage, off, err)
			}

			// Restore the newest generation for the next boundary.
			if err := os.WriteFile(s.Path, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCrashRecoveryWithoutFallback: same damage sweep with Keep=1 (no
// rotated generation to fall back to) must always fail with a typed error,
// never return damaged bytes.
func TestCrashRecoveryWithoutFallback(t *testing.T) {
	payload := []byte(`{"version":2,"pad":"` + string(bytes.Repeat([]byte("x"), 200)) + `"}`)
	s := storeAt(t, 1)
	if err := s.Save(payload); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(s.Path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(pristine); off += 64 {
		damaged := append([]byte(nil), pristine...)
		damaged[off] ^= 0x01
		if err := os.WriteFile(s.Path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, info, err := s.Load()
		if !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("flip at %d: err = %v, want ErrNoSnapshot", off, err)
		}
		if len(info.Skipped) != 1 || !errors.Is(info.Skipped[0], ErrCorrupt) {
			t.Fatalf("flip at %d: skipped = %v, want one typed ErrCorrupt", off, info.Skipped)
		}
	}
}

func TestSaveTwiceOverSamePath(t *testing.T) {
	s := storeAt(t, 1)
	if err := s.Save([]byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	payload, _, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != `{"a":2}` {
		t.Fatalf("payload = %s, want the overwrite", payload)
	}
}

func TestRemove(t *testing.T) {
	s := storeAt(t, 3)
	for i := 0; i < 3; i++ {
		if err := s.Save([]byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err after Remove = %v, want ErrNoSnapshot", err)
	}
	// Removing an empty store is fine.
	if err := s.Remove(); err != nil {
		t.Fatal(err)
	}
}
