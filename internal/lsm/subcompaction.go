package lsm

// Key-range sharding of one compaction job (RocksDB's "subcompactions").
//
// The job's merged key space is cut at user-key boundaries into n disjoint
// shards, each run on its own goroutine with its own input readers, merge
// heap, and output writers. Every output goes through wrapper.WrapCreate,
// so under SHIELD each shard drives its own chunked encrypting writer —
// per-chunk encryption parallelism composes with compaction parallelism.
//
// Correctness relies on boundaries being user keys: all versions of a key
// land in exactly one shard, so the per-shard drop logic (shadowed
// versions, bottommost tombstone elision) sees the same record sequence
// the serial merge would. Shard i owns a disjoint slice of the job's
// reserved output-file-number space; with the same boundaries the
// concatenated shard outputs are byte-identical to the serial path's.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/lsm/sstable"
	"shield/internal/vfs"
)

// errShardAborted cancels sibling shards once one shard fails; the
// dispatcher reports the first real error instead.
var errShardAborted = errors.New("lsm: subcompaction aborted by sibling failure")

// subcompactionBoundaries derives user-key split points for the job, or nil
// to run serially. The candidates are the input files' bounding keys: free
// to compute, and they track the data distribution closely enough to
// balance the shards.
func subcompactionBoundaries(job CompactionJob) [][]byte {
	n := job.MaxSubcompactions
	if n <= 1 {
		return nil
	}
	var cands [][]byte
	for _, lvl := range job.Inputs {
		for _, f := range lvl.Files {
			cands = append(cands, base.UserKey(f.Smallest), base.UserKey(f.Largest))
		}
	}
	sort.Slice(cands, func(i, j int) bool { return bytes.Compare(cands[i], cands[j]) < 0 })
	uniq := cands[:0]
	for _, c := range cands {
		if len(uniq) == 0 || !bytes.Equal(uniq[len(uniq)-1], c) {
			uniq = append(uniq, c)
		}
	}
	// A boundary at the global minimum would only make an empty leading
	// shard.
	if len(uniq) > 0 {
		uniq = uniq[1:]
	}
	if len(uniq) == 0 {
		return nil
	}
	want := n - 1
	if want > len(uniq) {
		want = len(uniq)
	}
	var bounds [][]byte
	for i := 1; i <= want; i++ {
		b := uniq[i*len(uniq)/(want+1)]
		if len(bounds) == 0 || !bytes.Equal(bounds[len(bounds)-1], b) {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

// runShardedCompaction executes the job across the shards the boundaries
// define (none = one serial shard). On any shard error every output of
// every shard is removed — the job-level abort-and-retain contract is
// unchanged from the serial path.
func runShardedCompaction(fs vfs.FS, wrapper FileWrapper, job CompactionJob, bounds [][]byte) (CompactionResult, error) {
	n := len(bounds) + 1
	res := CompactionResult{Subcompactions: n}
	if n == 1 {
		sr, err := runCompactionShard(fs, wrapper, job, nil, nil, job.FirstOutputFileNum, job.MaxOutputFiles, nil)
		if err != nil {
			return CompactionResult{Subcompactions: n}, err
		}
		res.Outputs = sr.outputs
		res.BytesWritten = sr.written
		return res, nil
	}

	per := job.MaxOutputFiles / uint64(n)
	if per == 0 {
		return res, fmt.Errorf("lsm: %d subcompactions over %d reserved file numbers", n, job.MaxOutputFiles)
	}
	var (
		wg      sync.WaitGroup
		abort   atomic.Bool
		results = make([]shardResult, n)
		errs    = make([]error, n)
	)
	for i := 0; i < n; i++ {
		var start, end []byte
		if i > 0 {
			start = bounds[i-1]
		}
		if i < n-1 {
			end = bounds[i]
		}
		wg.Add(1)
		go func(i int, start, end []byte) {
			defer wg.Done()
			sr, err := runCompactionShard(fs, wrapper, job,
				start, end, job.FirstOutputFileNum+uint64(i)*per, per, &abort)
			if err != nil {
				abort.Store(true)
				errs[i] = err
				return
			}
			results[i] = sr
		}(i, start, end)
	}
	wg.Wait()

	var firstErr error
	for _, err := range errs {
		if err != nil && !errors.Is(err, errShardAborted) {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		// Failed shards already removed their own outputs; remove the
		// survivors' too so the aborted job leaves nothing behind.
		for _, sr := range results {
			removeOutputs(fs, wrapper, job.Dir, sr.outputs)
		}
		return CompactionResult{Subcompactions: n}, firstErr
	}
	// Shard order is key order, so appending keeps outputs sorted and
	// non-overlapping across the whole job.
	for _, sr := range results {
		res.Outputs = append(res.Outputs, sr.outputs...)
		res.BytesWritten += sr.written
	}
	return res, nil
}

// removeOutputs deletes compaction output files and releases their DEK
// registrations (abort path).
func removeOutputs(fs vfs.FS, wrapper FileWrapper, dir string, outputs []manifest.FileMetadata) {
	for _, o := range outputs {
		name := sstFileName(dir, o.FileNum)
		fs.Remove(name)
		wrapper.FileDeleted(name, o.DEKID)
	}
}

// shardOverlapsFile reports whether file f can hold keys in [start, end)
// (nil bounds are open).
func shardOverlapsFile(start, end []byte, f manifest.FileMetadata) bool {
	if start != nil && bytes.Compare(base.UserKey(f.Largest), start) < 0 {
		return false
	}
	if end != nil && bytes.Compare(base.UserKey(f.Smallest), end) >= 0 {
		return false
	}
	return true
}

type shardResult struct {
	outputs []manifest.FileMetadata
	written int64
}

// runCompactionShard merges the job's inputs restricted to user keys in
// [start, end) (nil bounds are open), writing outputs numbered from
// firstNum within a budget of maxFiles. A non-nil abort flag is polled so
// a failing sibling shard cancels this one early.
//
// Failure is abort-and-retain: every output this shard created is closed
// and removed — releasing its quota and DEK registration — and the inputs
// remain authoritative.
//
//shield:nosyncdir shard outputs become durable as a set: the dispatcher (RunCompaction) syncs the directory once after every shard finishes, before the manifest edit installs
func runCompactionShard(fs vfs.FS, wrapper FileWrapper, job CompactionJob,
	start, end []byte, firstNum, maxFiles uint64, abort *atomic.Bool) (res shardResult, retErr error) {

	// Open the inputs that can intersect this shard and build the merge.
	var iters []internalIterator
	var readers []*sstable.Reader
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	for _, lvl := range job.Inputs {
		for _, f := range lvl.Files {
			if !shardOverlapsFile(start, end, f) {
				continue
			}
			name := sstFileName(job.Dir, f.FileNum)
			raw, err := fs.Open(name)
			if err != nil {
				return res, fmt.Errorf("lsm: compaction input %d: %w", f.FileNum, err)
			}
			wrapped, err := wrapper.WrapOpen(name, FileKindSST, raw)
			if err != nil {
				raw.Close()
				return res, err
			}
			r, err := sstable.NewReader(wrapped, sstable.ReaderOptions{FileNum: f.FileNum})
			if err != nil {
				wrapped.Close()
				return res, fmt.Errorf("lsm: compaction input %d: %w", f.FileNum, err)
			}
			readers = append(readers, r)
			iters = append(iters, &sstIterAdapter{it: r.NewIter()})
		}
	}
	merged := newMergingIter(iters...)

	smallestSnapshot := base.SeqNum(job.SmallestSnapshot)
	var (
		w             *sstable.Writer
		outName       string
		outDEKID      string
		outFile       vfs.WritableFile
		outFileNum    uint64
		nextOutNum    = firstNum
		lastOutNum    = firstNum + maxFiles
		lastUserKey   []byte
		haveUserKey   bool
		lastSeqForKey base.SeqNum
		prevAddedUser []byte
		writerOpts    = Options{BlockSize: job.BlockSize, BloomBitsPerKey: job.BloomBitsPerKey, Compression: job.Compression}
	)

	type createdOutput struct{ name, dekID string }
	var created []createdOutput
	defer func() {
		if retErr == nil {
			return
		}
		if w != nil {
			w.Abort()
			w = nil
		}
		for _, c := range created {
			fs.Remove(c.name)
			wrapper.FileDeleted(c.name, c.dekID)
		}
		res = shardResult{}
	}()

	openOutput := func() error {
		if nextOutNum >= lastOutNum {
			return fmt.Errorf("lsm: compaction exhausted reserved file numbers")
		}
		outFileNum = nextOutNum
		nextOutNum++
		outName = sstFileName(job.Dir, outFileNum)
		raw, err := fs.Create(outName)
		if err != nil {
			return err
		}
		wrapped, dekID, err := wrapper.WrapCreate(outName, FileKindSST, raw)
		if err != nil {
			// The raw file exists but never joined created; remove it here
			// or the aborted job would leak it.
			raw.Close()
			fs.Remove(outName)
			return err
		}
		outDEKID = dekID
		outFile = wrapped
		created = append(created, createdOutput{name: outName, dekID: dekID})
		w = newTableWriter(wrapped, writerOpts)
		return nil
	}

	finishOutput := func() error {
		if w == nil || w.NumEntries() == 0 {
			if w != nil {
				// Empty output: finish and delete.
				if err := w.Finish(); err != nil {
					return err
				}
				fs.Remove(outName)
				wrapper.FileDeleted(outName, outDEKID)
				created = created[:len(created)-1]
				w = nil
			}
			return nil
		}
		if err := w.Finish(); err != nil {
			return err
		}
		res.outputs = append(res.outputs, manifest.FileMetadata{
			FileNum:  outFileNum,
			Size:     w.FileSize(),
			Smallest: w.Smallest(),
			Largest:  w.Largest(),
			DEKID:    outDEKID,
			Digest:   fileDigest(outFile),
		})
		res.written += int64(w.FileSize())
		w = nil
		return nil
	}

	var ok bool
	if start == nil {
		ok = merged.First()
	} else {
		// SearchKey sorts before every version of start, so the shard picks
		// up the first record at or after its lower bound.
		ok = merged.SeekGE(base.SearchKey(start, base.MaxSeqNum))
	}
	for ; ok; ok = merged.Next() {
		if abort != nil && abort.Load() {
			return res, errShardAborted
		}
		ikey := merged.Key()
		userKey := base.UserKey(ikey)
		if end != nil && bytes.Compare(userKey, end) >= 0 {
			break
		}
		seq, kind := base.DecodeTrailer(ikey)

		firstOccurrence := !haveUserKey || !bytes.Equal(userKey, lastUserKey)
		if firstOccurrence {
			lastUserKey = append(lastUserKey[:0], userKey...)
			haveUserKey = true
		}

		drop := false
		switch {
		case !firstOccurrence && lastSeqForKey <= smallestSnapshot:
			// A newer record of this key is visible to every snapshot.
			drop = true
		case kind == base.KindDelete && seq <= smallestSnapshot && job.Bottommost:
			// Tombstone with nothing underneath it to hide.
			drop = true
		}
		lastSeqForKey = seq
		if drop {
			continue
		}

		// Cut the output at the target size, but only between user keys so
		// all versions of a key share one file.
		if w != nil && w.EstimatedSize() >= job.TargetFileSize &&
			prevAddedUser != nil && !bytes.Equal(userKey, prevAddedUser) {
			if err := finishOutput(); err != nil {
				return res, err
			}
		}
		if w == nil {
			if err := openOutput(); err != nil {
				return res, err
			}
		}
		if err := w.Add(ikey, merged.Value()); err != nil {
			return res, err
		}
		prevAddedUser = append(prevAddedUser[:0], userKey...)
	}
	if err := merged.Err(); err != nil {
		return res, err
	}
	if err := finishOutput(); err != nil {
		return res, err
	}
	return res, nil
}
