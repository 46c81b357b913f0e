package lsm

import (
	"errors"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
)

// CompactLevel merges every file of level, plus the files of level+1 they
// overlap, into level+1 as one claimed job. Tests use it to place data in
// the middle of the tree, which CompactRange never does.
func (d *DB) CompactLevel(level int) error {
	d.mu.Lock()
	files := d.current.Levels[level]
	if len(files) == 0 {
		d.mu.Unlock()
		return nil
	}
	plan := d.newLeveledPlanLocked(level, files)
	if d.planConflictsLocked(plan) {
		d.mu.Unlock()
		return errors.New("lsm: CompactLevel: inputs busy")
	}
	d.claimPlanLocked(plan)
	d.mu.Unlock()

	err := d.runCompactionPlan(plan)
	d.mu.Lock()
	d.releasePlanLocked(plan)
	d.bgCond.Broadcast()
	d.mu.Unlock()
	return err
}

// LocalCompactor returns the in-process compactor the DB runs when
// Options.Compactor is nil, over the DB's own filesystem and wrapper.
func (d *DB) LocalCompactor() Compactor {
	return &LocalCompactor{FS: d.fs, Wrapper: d.wrapper}
}

// LevelFiles returns a copy of the current version's file metadata, per
// level.
func (d *DB) LevelFiles() [][]manifest.FileMetadata {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([][]manifest.FileMetadata, manifest.NumLevels)
	for lvl, files := range d.current.Levels {
		out[lvl] = derefFiles(files)
	}
	return out
}

// TableEntry is one record of a table as stored: every version and
// tombstone, not the merged view.
type TableEntry struct {
	UserKey string
	Kind    base.Kind
	Value   string
}

// TableEntries reads every record of the table numbered fileNum.
func (d *DB) TableEntries(fileNum uint64) ([]TableEntry, error) {
	it, err := d.openTableIter(fileNum)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []TableEntry
	for ok := it.First(); ok; ok = it.Next() {
		_, kind := base.DecodeTrailer(it.Key())
		out = append(out, TableEntry{UserKey: string(base.UserKey(it.Key())), Kind: kind, Value: string(it.Value())})
	}
	return out, it.Err()
}
