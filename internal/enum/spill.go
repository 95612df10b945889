package enum

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ckptio"
	"repro/internal/stateset"
)

// Out-of-core enumeration. When RunConfig.SpillDir is set together with
// a memory budget, the run watches the estimated resident footprint at
// every level boundary and, as it approaches the budget, spills the
// entire resident visited and tuple sets to CRC-checked files instead of
// stopping with ErrMemBudget. Spilled entries keep
// their admission ranks, and the reconcile step filters each level's
// pending successors against the spill files (delayed duplicate
// detection, one file resident at a time), so the run's admissions —
// and therefore its Result — stay bit-identical to an in-memory run.
//
// Every run can spill, at any width, cache count or state count: the
// level-synchronous BFS already batches dedup at level boundaries, which
// is what makes one pass per spill file affordable, and every run keeps
// its visited and tuple sets in the compact store over one key codec.

// spillState tracks one run's spill files.
type spillState struct {
	dir string
	// threshold is the estimated-bytes level at which the run spills:
	// 3/4 of Budget.MaxBytes, leaving headroom for the level in flight.
	threshold int64
	// visitedFiles and tupleFiles list the spill files written so far.
	// They advance independently (a spill event with no new tuples
	// writes no tuple file).
	visitedFiles []string
	tupleFiles   []string
	seq          int
}

// initSpill arms out-of-core mode for a run when configured; it verifies
// the directory is writable up front so misconfiguration fails the run at
// level 0, not mid-exploration.
func (b *bfs) initSpill() error {
	if b.opts.SpillDir == "" || b.opts.Budget.MaxBytes <= 0 {
		return nil
	}
	if err := os.MkdirAll(b.opts.SpillDir, 0o755); err != nil {
		return fmt.Errorf("enum: creating spill directory: %w", err)
	}
	if err := ckptio.PreflightDir(b.opts.SpillDir); err != nil {
		return fmt.Errorf("enum: spill directory: %w", err)
	}
	// A budgeted run that failed or was killed leaves its spill files
	// behind; they are garbage by construction (checkpoints are
	// self-contained, so a resume never reads an earlier run's files) and
	// would otherwise accumulate forever in a long-lived spill directory.
	// Sweep them before the first write, mirroring the disk cache tier's
	// startup retention pass. A spill directory belongs to one run at a
	// time — concurrent runs must use distinct directories, as the
	// sequential file numbering would collide regardless of this sweep.
	if swept, err := ckptio.SweepPrefix(b.opts.SpillDir, "spill-"); err != nil {
		return fmt.Errorf("enum: sweeping stale spill files: %w", err)
	} else if swept.Removed > 0 {
		b.orun.Event("spill_stale_swept_total", int64(swept.Removed))
		b.orun.Event("spill_stale_swept_bytes_total", swept.FreedBytes)
	}
	b.spill = &spillState{
		dir:       b.opts.SpillDir,
		threshold: b.opts.Budget.MaxBytes - b.opts.Budget.MaxBytes/4,
	}
	return nil
}

// maybeSpill spills the resident sets when the footprint estimate has
// crossed the threshold. Called at level boundaries before the budget
// check, so a run that can spill never trips ErrMemBudget on visited
// bytes. A failed write rolls the entries back into memory and returns
// the error (the run then stops on the memory budget instead of
// continuing with silently wrong dedup).
func (b *bfs) maybeSpill() error {
	sp := b.spill
	if sp == nil || b.estBytes() <= sp.threshold || b.visited.resident() == 0 {
		return nil
	}
	freed := b.visited.bytes() + b.tuples.bytes()
	if vb := b.visited.spill(); vb != nil {
		path := filepath.Join(sp.dir, fmt.Sprintf("spill-visited-%04d.bin", sp.seq))
		if err := (&ckptio.Store{Path: path, Keep: 1}).Save(vb); err != nil {
			if rerr := b.visited.restore(vb); rerr != nil {
				return fmt.Errorf("enum: spill write failed (%v) and rollback failed: %w", err, rerr)
			}
			return fmt.Errorf("enum: writing spill file: %w", err)
		}
		sp.visitedFiles = append(sp.visitedFiles, path)
	}
	if tb := b.tuples.spill(); tb != nil {
		path := filepath.Join(sp.dir, fmt.Sprintf("spill-tuples-%04d.bin", sp.seq))
		if err := (&ckptio.Store{Path: path, Keep: 1}).Save(tb); err != nil {
			if rerr := b.tuples.restore(tb); rerr != nil {
				return fmt.Errorf("enum: tuple spill write failed (%v) and rollback failed: %w", err, rerr)
			}
			return fmt.Errorf("enum: writing tuple spill file: %w", err)
		}
		sp.tupleFiles = append(sp.tupleFiles, path)
	}
	sp.seq++
	freed -= b.visited.bytes() + b.tuples.bytes()
	b.orun.Event("spill_files_total", 1)
	b.orun.Event("spilled_bytes_total", freed)
	return nil
}

// loadSpillBlob reads one spill file back through the CRC envelope.
func loadSpillBlob(path string) (*stateset.BlobReader, error) {
	data, _, err := (&ckptio.Store{Path: path, Keep: 1}).Load()
	if err != nil {
		return nil, fmt.Errorf("enum: reading spill file %s: %w", filepath.Base(path), err)
	}
	br, err := stateset.NewBlobReader(data)
	if err != nil {
		return nil, fmt.Errorf("enum: spill file %s: %w", filepath.Base(path), err)
	}
	return br, nil
}

// spillFilter performs the delayed duplicate detection of out-of-core
// BFS: it drops from the level's pending lists every admission whose key
// lives in a spill file and marks entries whose state tuple is already in
// the spilled tuple census. One file is resident at a time, so the
// transient memory is bounded by the largest single spill. The surviving
// entries, still in rank order, are exactly the set an in-memory run would
// admit.
func (b *bfs) spillFilter(lists [][]pendEntry) error {
	sp := b.spill
	for _, path := range sp.visitedFiles {
		br, err := loadSpillBlob(path)
		if err != nil {
			return err
		}
		for w, l := range lists {
			kept := l[:0]
			for i := range l {
				if br.Has(l[i].it.key.bytes(b.kc.width)) {
					continue
				}
				kept = append(kept, l[i])
			}
			clear(l[len(kept):])
			lists[w] = kept
		}
	}
	if len(sp.tupleFiles) == 0 {
		return nil
	}
	// Tuple keys of the survivors, in list order.
	var tks []Key
	for _, l := range lists {
		for i := range l {
			tks = append(tks, b.kc.tupleKey(&l[i].it.state))
		}
	}
	for _, path := range sp.tupleFiles {
		br, err := loadSpillBlob(path)
		if err != nil {
			return err
		}
		j := 0
		for _, l := range lists {
			for i := range l {
				if e := &l[i]; !e.it.tupleDup && br.Has(tks[j].bytes(b.kc.width)) {
					e.it.tupleDup = true
				}
				j++
			}
		}
	}
	return nil
}
