package ckptio

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SweepStats reports what a SweepDir retention pass found and removed.
type SweepStats struct {
	// Scanned is the number of matching files considered.
	Scanned int
	// Removed is the number of files evicted.
	Removed int
	// FreedBytes is the total size of evicted files.
	FreedBytes int64
	// KeptBytes is the total size of the files left resident.
	KeptBytes int64
}

// SweepDir bounds the total size of the files in dir whose names end with
// suffix ("" matches every regular file) to maxBytes, deleting the files
// with the oldest modification times first until the remainder fits. It is
// the startup retention pass for ccserved's disk cache tier: result files
// are written once and never touched again, so modification time orders
// them by write recency — an LRU over cache fills, which is exactly the
// eviction order a content-addressed cache wants.
//
// maxBytes <= 0 disables eviction (the stats still report the scan).
// Subdirectories, dotfiles and non-regular files are never touched, and a
// file that disappears mid-sweep (a concurrent evictor, a manual cleanup)
// is skipped rather than failing the sweep. Removal errors abort the sweep
// with the stats accumulated so far: an undeletable directory would
// otherwise loop forever on the same victim.
func SweepDir(dir, suffix string, maxBytes int64) (SweepStats, error) {
	var stats SweepStats
	entries, err := os.ReadDir(dir)
	if err != nil {
		return stats, err
	}
	type candidate struct {
		path  string
		size  int64
		mtime int64
	}
	var files []candidate
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || strings.HasPrefix(name, ".") {
			continue
		}
		if suffix != "" && !strings.HasSuffix(name, suffix) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // vanished mid-sweep
		}
		files = append(files, candidate{
			path:  filepath.Join(dir, name),
			size:  fi.Size(),
			mtime: fi.ModTime().UnixNano(),
		})
		stats.Scanned++
		stats.KeptBytes += fi.Size()
	}
	if maxBytes <= 0 {
		return stats, nil
	}
	// Oldest write first; ties break on path so the sweep is deterministic.
	sort.Slice(files, func(a, b int) bool {
		if files[a].mtime != files[b].mtime {
			return files[a].mtime < files[b].mtime
		}
		return files[a].path < files[b].path
	})
	for _, f := range files {
		if stats.KeptBytes <= maxBytes {
			break
		}
		if err := os.Remove(f.path); err != nil {
			if os.IsNotExist(err) {
				// Someone else removed it; count it as gone.
				stats.KeptBytes -= f.size
				continue
			}
			return stats, err
		}
		stats.Removed++
		stats.FreedBytes += f.size
		stats.KeptBytes -= f.size
	}
	return stats, nil
}

// SweepPrefix removes every regular file in dir whose name starts with
// prefix, returning what it found and freed. It is the startup cleanup for
// directories that hold strictly run-scoped scratch files — an enum run's
// out-of-core spill directory, where spill-visited-*.bin / spill-tuples-*.bin
// left behind by a budgeted run that failed or was killed are garbage by
// construction (enumeration checkpoints are self-contained, so no resume
// ever reads an earlier run's spill files). Subdirectories, dotfiles and
// non-regular files are never touched; a file vanishing mid-sweep is
// skipped. A removal error aborts the sweep with the stats accumulated so
// far, mirroring SweepDir.
func SweepPrefix(dir, prefix string) (SweepStats, error) {
	var stats SweepStats
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return stats, nil // nothing to sweep
		}
		return stats, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || strings.HasPrefix(name, ".") || !strings.HasPrefix(name, prefix) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // vanished mid-sweep
		}
		stats.Scanned++
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return stats, err
		}
		stats.Removed++
		stats.FreedBytes += fi.Size()
	}
	return stats, nil
}
