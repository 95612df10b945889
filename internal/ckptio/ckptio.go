// Package ckptio is the durable checkpoint store shared by the
// enumeration and symbolic checkpoint layers (internal/enum,
// internal/symbolic) and the campaign runner (internal/campaign).
//
// A checkpoint is only useful if it survives the very failures it exists
// for: a machine losing power mid-write, a disk filling up, a file
// truncated by a crashed copy, a stray editor corrupting a byte. The store
// therefore never trusts a file it did not validate:
//
//   - Writes are atomic and durable: the payload is wrapped in a
//     checksummed envelope, written to a temp file in the target
//     directory, fsynced, renamed into place, and the directory is
//     fsynced, so a crash at any instant leaves either the old snapshot
//     or the new one — never a torn file.
//   - Every snapshot carries a CRC32 (IEEE) over the payload plus the
//     payload length; Load refuses truncated or bit-flipped files with a
//     typed, versioned error instead of handing garbage to the decoder.
//   - Save rotates generations: the previous snapshot becomes <path>.1,
//     the one before it <path>.2, ..., keeping the last Keep good
//     snapshots. Load falls back automatically to the newest generation
//     that validates, so one corrupt file costs a little progress, not
//     the whole run.
//
// The store is payload-agnostic: it persists opaque bytes. Checkpoint
// semantics (JSON schema, format versions, resume validation) stay in the
// engine packages.
package ckptio

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// EnvelopeVersion is the on-disk envelope format version; Load rejects
// envelopes written by future builds with an UnsupportedVersionError.
const EnvelopeVersion = 1

// DefaultKeep is the number of good snapshot generations retained when
// Store.Keep is zero.
const DefaultKeep = 3

// headerMagic starts every enveloped snapshot. A file without it is
// corrupt: there is no checksum to verify it by.
const headerMagic = "ccckpt "

// Sentinel errors, matchable with errors.Is.
var (
	// ErrCorrupt: a snapshot file exists but fails envelope validation
	// (bad magic, truncation, length mismatch, checksum mismatch). The
	// concrete error is a *CorruptError carrying the path and reason.
	ErrCorrupt = errors.New("ckptio: corrupt snapshot")
	// ErrUnsupportedVersion: the envelope was written by a newer build.
	// The concrete error is an *UnsupportedVersionError.
	ErrUnsupportedVersion = errors.New("ckptio: unsupported snapshot envelope version")
	// ErrNoSnapshot: no generation of the store validates (including
	// "no file exists at all").
	ErrNoSnapshot = errors.New("ckptio: no usable snapshot")
	// ErrUnwritable: the snapshot directory failed the preflight
	// writability probe, so no Save can ever succeed there. The concrete
	// error is an *UnwritableError carrying the directory and cause.
	ErrUnwritable = errors.New("ckptio: snapshot directory not writable")
)

// UnwritableError reports a snapshot directory that failed the preflight
// probe of PreflightDir. It unwraps to ErrUnwritable.
type UnwritableError struct {
	// Dir is the directory that was probed.
	Dir string
	// Err is the underlying filesystem error.
	Err error
}

func (e *UnwritableError) Error() string {
	return fmt.Sprintf("ckptio: snapshot directory %s is not writable: %v", e.Dir, e.Err)
}

func (e *UnwritableError) Unwrap() error { return ErrUnwritable }

// PreflightDir probes that dir can actually host durable snapshots — it
// exists, is a directory, and a file can be created, written and removed in
// it — before any long run starts. Save performs the same operations, so a
// run whose store passes preflight cannot discover an unwritable directory
// only at its first mid-run snapshot, hours in. Failures are typed: the
// returned error unwraps to ErrUnwritable.
func PreflightDir(dir string) error {
	fi, err := os.Stat(dir)
	if err != nil {
		return &UnwritableError{Dir: dir, Err: err}
	}
	if !fi.IsDir() {
		return &UnwritableError{Dir: dir, Err: fmt.Errorf("not a directory")}
	}
	f, err := os.CreateTemp(dir, ".ckptio-preflight-*")
	if err != nil {
		return &UnwritableError{Dir: dir, Err: err}
	}
	name := f.Name()
	_, werr := f.Write([]byte("preflight"))
	cerr := f.Close()
	rerr := os.Remove(name)
	for _, e := range []error{werr, cerr, rerr} {
		if e != nil {
			return &UnwritableError{Dir: dir, Err: e}
		}
	}
	return nil
}

// Preflight probes the store's directory with PreflightDir; call it at
// store creation to fail fast instead of at the first Save.
func (s *Store) Preflight() error {
	if s.Path == "" {
		return fmt.Errorf("ckptio: store has no path")
	}
	return PreflightDir(filepath.Dir(s.Path))
}

// CorruptError reports a snapshot that failed envelope validation. It
// unwraps to ErrCorrupt.
type CorruptError struct {
	// Path is the offending file.
	Path string
	// Version is the envelope version the header claimed, or 0 when the
	// header itself was unreadable.
	Version int
	// Reason describes the validation failure.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ckptio: %s: corrupt snapshot (envelope v%d): %s", e.Path, e.Version, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// UnsupportedVersionError reports an envelope from a future build. It
// unwraps to ErrUnsupportedVersion.
type UnsupportedVersionError struct {
	Path    string
	Version int
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("ckptio: %s: snapshot envelope version %d (this build reads version %d)",
		e.Path, e.Version, EnvelopeVersion)
}

func (e *UnsupportedVersionError) Unwrap() error { return ErrUnsupportedVersion }

// Store persists rotating snapshot generations under one base path. The
// newest snapshot lives at Path, the previous one at Path.1, and so on up
// to Path.<Keep-1>. The zero-value-with-Path store keeps DefaultKeep
// generations.
type Store struct {
	// Path is the base file path of the newest snapshot.
	Path string
	// Keep is the total number of good generations retained, including
	// the newest (<=0: DefaultKeep, 1: no rotation).
	Keep int
}

// keep returns the effective generation count.
func (s *Store) keep() int {
	if s.Keep <= 0 {
		return DefaultKeep
	}
	return s.Keep
}

// GenPath returns the path of generation gen: the base path for 0, the
// rotated "<path>.<gen>" for older generations.
func (s *Store) GenPath(gen int) string {
	if gen == 0 {
		return s.Path
	}
	return s.Path + "." + strconv.Itoa(gen)
}

// Encode wraps a payload in the checksummed envelope.
func Encode(payload []byte) []byte {
	header := fmt.Sprintf("%sv%d crc32=%08x len=%d\n",
		headerMagic, EnvelopeVersion, crc32.ChecksumIEEE(payload), len(payload))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}

// Decode validates an enveloped snapshot and returns its payload. Anything
// else fails with a *CorruptError or *UnsupportedVersionError; path only
// labels the error.
func Decode(path string, data []byte) ([]byte, error) {
	if !strings.HasPrefix(string(data), headerMagic) {
		return nil, &CorruptError{Path: path, Reason: "missing envelope header"}
	}
	nl := strings.IndexByte(string(data), '\n')
	if nl < 0 {
		return nil, &CorruptError{Path: path, Reason: "unterminated envelope header"}
	}
	var version, length int
	var sum uint32
	if _, err := fmt.Sscanf(string(data[:nl]), headerMagic+"v%d crc32=%x len=%d", &version, &sum, &length); err != nil {
		return nil, &CorruptError{Path: path, Reason: "malformed envelope header"}
	}
	if version != EnvelopeVersion {
		return nil, &UnsupportedVersionError{Path: path, Version: version}
	}
	payload := data[nl+1:]
	if len(payload) != length {
		return nil, &CorruptError{Path: path, Version: version,
			Reason: fmt.Sprintf("payload is %d bytes, envelope says %d (truncated or padded)", len(payload), length)}
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, &CorruptError{Path: path, Version: version,
			Reason: fmt.Sprintf("checksum %08x does not match envelope %08x", got, sum)}
	}
	return payload, nil
}

// Save durably writes payload as the newest generation: envelope + temp
// file + fsync + rotation + rename + directory fsync. Existing
// generations shift up one slot; the oldest beyond Keep is dropped.
func (s *Store) Save(payload []byte) error {
	if s.Path == "" {
		return fmt.Errorf("ckptio: store has no path")
	}
	dir := filepath.Dir(s.Path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(s.Path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(Encode(payload)); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Shift the existing generations up. A crash mid-rotation leaves every
	// snapshot intact under some name Load checks, so nothing is lost.
	for gen := s.keep() - 2; gen >= 0; gen-- {
		if err := rename(s.GenPath(gen), s.GenPath(gen+1)); err != nil && !errors.Is(err, os.ErrNotExist) {
			os.Remove(tmpName)
			return err
		}
	}
	if err := rename(tmpName, s.Path); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}

// LoadInfo describes which generation Load returned and what it skipped.
type LoadInfo struct {
	// Path and Generation identify the snapshot that validated.
	Path       string
	Generation int
	// Skipped collects the validation errors of newer generations that
	// were passed over, newest first. Non-empty Skipped with a nil Load
	// error means the store recovered from corruption.
	Skipped []error
}

// Load returns the payload of the newest generation that validates,
// falling back through rotated generations. When none validates it
// returns an error wrapping ErrNoSnapshot (with the per-generation
// failures in the LoadInfo, which is non-nil in both cases).
func (s *Store) Load() ([]byte, *LoadInfo, error) {
	info := &LoadInfo{}
	for gen := 0; gen < s.keep(); gen++ {
		path := s.GenPath(gen)
		data, err := os.ReadFile(path)
		if err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				info.Skipped = append(info.Skipped, err)
			}
			continue
		}
		payload, err := Decode(path, data)
		if err != nil {
			info.Skipped = append(info.Skipped, err)
			continue
		}
		info.Path, info.Generation = path, gen
		return payload, info, nil
	}
	return nil, info, fmt.Errorf("%w at %s (%d generation(s) rejected)", ErrNoSnapshot, s.Path, len(info.Skipped))
}

// Remove deletes every generation of the store, ignoring missing files.
func (s *Store) Remove() error {
	var first error
	for gen := 0; gen < s.keep(); gen++ {
		if err := os.Remove(s.GenPath(gen)); err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}

// rename moves old to new, replacing new. On Windows the replace needs
// the target removed first.
func rename(oldPath, newPath string) error {
	err := os.Rename(oldPath, newPath)
	if err != nil && runtime.GOOS == "windows" {
		os.Remove(newPath)
		return os.Rename(oldPath, newPath)
	}
	return err
}

// syncDir fsyncs a directory so a rename survives power loss; best-effort
// because not every platform supports it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
