package lsm_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"shield/internal/compactsvc"
	"shield/internal/core"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/lsm/base"
	"shield/internal/lsm/manifest"
	"shield/internal/vfs"
)

// crOptions keeps background compaction out of the way (no level reaches
// its trigger), so the test alone decides where data sits.
func crOptions(fs vfs.FS) lsm.Options {
	return lsm.Options{
		FS:                  fs,
		MemtableSize:        32 << 10,
		TargetFileSize:      16 << 10,
		BaseLevelSize:       1 << 30,
		L0CompactionTrigger: 100,
		L0StopWritesTrigger: 100,
	}
}

type version struct {
	val string
	del bool
}

// crModel records every version written to each key, oldest first, and
// how many of them a held snapshot sees.
type crModel struct {
	hist   map[string][]version
	atSnap map[string]int
}

func (m *crModel) latest(k string) (version, bool) {
	h := m.hist[k]
	if len(h) == 0 {
		return version{}, false
	}
	return h[len(h)-1], true
}

func (m *crModel) atSnapshot(k string) (version, bool) {
	n := m.atSnap[k]
	if n == 0 {
		return version{}, false
	}
	return m.hist[k][n-1], true
}

// bottomEntries is what a bottommost merge must keep of k, newest first as
// tables store them: every version written after the snapshot (the drop
// rule tracks only the smallest snapshot, so it cannot tell which of those
// the head still needs), then the version the snapshot sees if that is a
// value. Older versions, and a tombstone the snapshot sees, are gone.
func (m *crModel) bottomEntries(k string) []lsm.TableEntry {
	var out []lsm.TableEntry
	add := func(v version) {
		kind := base.KindSet
		if v.del {
			kind = base.KindDelete
		}
		out = append(out, lsm.TableEntry{UserKey: k, Kind: kind, Value: v.val})
	}
	h, n := m.hist[k], m.atSnap[k]
	for i := len(h) - 1; i >= n; i-- {
		add(h[i])
	}
	if n > 0 && !h[n-1].del {
		add(h[n-1])
	}
	return out
}

func crKey(i int) string { return fmt.Sprintf("k%04d", i) }

const crKeys = 1500

// buildLayeredTree writes five generations of overwrites and deletes and
// compacts them to different depths: gen 1 in L6, gen 2 in L3, gen 3 in
// L1, gens 4 and 5 in L0, with a snapshot taken after gen 3.
func buildLayeredTree(t *testing.T, db *lsm.DB) (*crModel, *lsm.Snapshot) {
	t.Helper()
	m := &crModel{hist: make(map[string][]version)}
	pad := strings.Repeat("x", 80)
	gen := func(g, putEvery, delEvery int) {
		for i := 0; i < crKeys; i++ {
			k := crKey(i)
			switch {
			case i%delEvery == 0:
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				m.hist[k] = append(m.hist[k], version{del: true})
			case i%putEvery == 0:
				v := fmt.Sprintf("g%d-%s-%s", g, k, pad)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				m.hist[k] = append(m.hist[k], version{val: v})
			}
		}
	}
	flushAndSink := func(to int) {
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		for lvl := 0; lvl < to; lvl++ {
			if err := db.CompactLevel(lvl); err != nil {
				t.Fatal(err)
			}
		}
	}
	gen(1, 1, 1<<30)
	flushAndSink(manifest.NumLevels - 1)
	gen(2, 3, 7)
	flushAndSink(3)
	gen(3, 5, 11)
	flushAndSink(1)
	snap := db.NewSnapshot()
	m.atSnap = make(map[string]int, len(m.hist))
	for k, h := range m.hist {
		m.atSnap[k] = len(h)
	}
	gen(4, 4, 13)
	flushAndSink(0)
	gen(5, 9, 17) // left in the memtable: CompactRange flushes it to L0

	lf := db.LevelFiles()
	for lvl, files := range lf {
		want := lvl == 0 || lvl == 1 || lvl == 3 || lvl == manifest.NumLevels-1
		if (len(files) > 0) != want {
			t.Fatalf("L%d holds %d files before CompactRange; want data only in L0, L1, L3 and L6", lvl, len(files))
		}
	}
	return m, snap
}

// checkModel reads every key back, at the head and at the snapshot.
func checkModel(t *testing.T, db *lsm.DB, m *crModel, snap *lsm.Snapshot) {
	t.Helper()
	check := func(what, k string, got []byte, err error, want version, ok bool) {
		t.Helper()
		if !ok || want.del {
			if err == nil {
				t.Fatalf("%s %s = %q, want not found", what, k, got)
			}
			return
		}
		if err != nil || string(got) != want.val {
			t.Fatalf("%s %s = %q, %v; want %q", what, k, got, err, want.val)
		}
	}
	for i := 0; i < crKeys; i++ {
		k := crKey(i)
		got, err := db.Get([]byte(k))
		want, ok := m.latest(k)
		check("Get", k, got, err, want, ok)
		got, err = snap.Get([]byte(k))
		want, ok = m.atSnapshot(k)
		check("snapshot Get", k, got, err, want, ok)
	}
}

// gateCompactor holds an armed job before it starts, so the test can act
// while the job's claim is held, then runs it on inner and counts the DEKs
// the KDS issued while it ran. Unarmed, it passes jobs straight through.
type gateCompactor struct {
	inner   lsm.Compactor
	kds     *kds.Store
	started chan lsm.CompactionJob
	release chan struct{}
	issued  int64
}

func (g *gateCompactor) Compact(job lsm.CompactionJob) (lsm.CompactionResult, error) {
	if g.started == nil {
		return g.inner.Compact(job)
	}
	g.started <- job
	<-g.release
	before, _, _ := g.kds.Stats()
	res, err := g.inner.Compact(job)
	after, _, _ := g.kds.Stats()
	g.issued = after - before
	return res, err
}

// TestCompactRangeOnePass checks that a whole-tree CompactRange is one
// compaction job: every file ends in the bottom level, rewritten once
// under one fresh DEK per output, with only the versions the held
// snapshot pins besides the newest, while a writer flushing during the
// job keeps its new L0 files out of the claim. It runs with the local
// compactor and offloaded to a compactsvc worker.
func TestCompactRangeOnePass(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		// nil: the DB's own in-process compactor.
		testCompactRangeOnePass(t, func(*testing.T, vfs.FS, *kds.Store) lsm.Compactor { return nil })
	})
	t.Run("compactsvc", func(t *testing.T) {
		testCompactRangeOnePass(t, func(t *testing.T, fs vfs.FS, store *kds.Store) lsm.Compactor {
			wcfg := core.Config{Mode: core.ModeSHIELD, FS: fs, KDS: kds.NewLocal(store, "worker-1")}
			wrapper, err := wcfg.BuildWrapper()
			if err != nil {
				t.Fatal(err)
			}
			orch, err := compactsvc.NewOrchestrator(fs, "127.0.0.1:0", compactsvc.OrchestratorConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { orch.Close() })
			w := compactsvc.NewWorker(fs, wrapper, "worker-1", orch.Addr(), compactsvc.WorkerConfig{PollEvery: 2 * time.Millisecond})
			t.Cleanup(func() { w.Close() })
			return orch
		})
	})
}

func testCompactRangeOnePass(t *testing.T, compactor func(*testing.T, vfs.FS, *kds.Store) lsm.Compactor) {
	fs := vfs.NewMem()
	store := kds.NewStore(kds.Policy{})
	gate := &gateCompactor{inner: compactor(t, fs, store), kds: store}
	opts := crOptions(fs)
	opts.Compactor = gate
	cfg := core.Config{Mode: core.ModeSHIELD, FS: fs, KDS: kds.NewLocal(store, "compute-1")}
	db, err := core.Open("db", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if gate.inner == nil {
		gate.inner = db.LocalCompactor()
	}

	m, snap := buildLayeredTree(t, db)
	defer snap.Release()
	oldDEKs := make(map[string]bool)
	var oldFiles []uint64
	for _, files := range db.LevelFiles() {
		for _, f := range files {
			oldDEKs[f.DEKID] = true
			oldFiles = append(oldFiles, f.FileNum)
		}
	}
	compactionsBefore := db.Metrics().Compactions

	gate.started = make(chan lsm.CompactionJob, 1)
	gate.release = make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate.release)
		}
	}
	defer release() // a failed check must not leave Close waiting on the job
	done := make(chan error, 1)
	go func() { done <- db.CompactRange() }()
	var job lsm.CompactionJob
	select {
	case job = <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("CompactRange started no job")
	}

	// The job holds its claim. A writer flushes new L0 files meanwhile.
	claimed := make(map[uint64]bool)
	var inLevels []int
	for _, in := range job.Inputs {
		inLevels = append(inLevels, in.Level)
		for _, f := range in.Files {
			claimed[f.FileNum] = true
			oldDEKs[f.DEKID] = true
		}
	}
	for _, num := range oldFiles {
		if !claimed[num] {
			t.Fatalf("file %d of the tree is not in the job's claim", num)
		}
	}
	if !reflect.DeepEqual(inLevels, []int{0, 1, 3, manifest.NumLevels - 1}) ||
		job.OutputLevel != manifest.NumLevels-1 || !job.Bottommost {
		t.Fatalf("job: inputs from levels %v into L%d (bottommost %v); want L0, L1, L3, L6 into bottommost L6",
			inLevels, job.OutputLevel, job.Bottommost)
	}
	const writerFlushes = 3
	for f := 0; f < writerFlushes; f++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("w%d-%04d", f, i)
			if err := db.Put([]byte(k), []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	writerFiles := make(map[uint64]bool)
	for _, f := range db.LevelFiles()[0] {
		if !claimed[f.FileNum] {
			writerFiles[f.FileNum] = true
		}
	}
	if len(writerFiles) != writerFlushes {
		t.Fatalf("writer flushed %d unclaimed L0 files during the job, want %d", len(writerFiles), writerFlushes)
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("CompactRange: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("CompactRange did not finish")
	}

	if n := db.Metrics().Compactions - compactionsBefore; n != 1 {
		t.Fatalf("CompactRange ran %d compactions, want 1", n)
	}
	lf := db.LevelFiles()
	for lvl := 1; lvl < manifest.NumLevels-1; lvl++ {
		if len(lf[lvl]) != 0 {
			t.Fatalf("L%d holds %d files after CompactRange", lvl, len(lf[lvl]))
		}
	}
	if len(lf[0]) != writerFlushes {
		t.Fatalf("L0 holds %d files after CompactRange, want the writer's %d", len(lf[0]), writerFlushes)
	}
	for _, f := range lf[0] {
		if !writerFiles[f.FileNum] {
			t.Fatalf("L0 file %d is not one the writer flushed", f.FileNum)
		}
	}
	bottom := lf[manifest.NumLevels-1]
	if int64(len(bottom)) != gate.issued {
		t.Fatalf("KDS issued %d DEKs during the job for %d output files", gate.issued, len(bottom))
	}
	newDEKs := make(map[string]bool)
	for _, f := range bottom {
		if f.DEKID == "" || oldDEKs[f.DEKID] || newDEKs[f.DEKID] {
			t.Fatalf("output %d: DEK %q is not a fresh one of its own", f.FileNum, f.DEKID)
		}
		newDEKs[f.DEKID] = true
	}

	got := make(map[string][]lsm.TableEntry)
	for _, f := range bottom {
		entries, err := db.TableEntries(f.FileNum)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			got[e.UserKey] = append(got[e.UserKey], e)
		}
	}
	for i := 0; i < crKeys; i++ {
		k := crKey(i)
		if want := m.bottomEntries(k); !reflect.DeepEqual(got[k], want) {
			t.Fatalf("L6 holds %+v for %s, want %+v", got[k], k, want)
		}
		delete(got, k)
	}
	if len(got) != 0 {
		t.Fatalf("L6 holds %d keys the tree never had before CompactRange", len(got))
	}
	checkModel(t, db, m, snap)
	for f := 0; f < writerFlushes; f++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("w%d-%04d", f, i)
			if v, err := db.Get([]byte(k)); err != nil || string(v) != k {
				t.Fatalf("writer key %s = %q, %v", k, v, err)
			}
		}
	}
}

// TestCompactRangeMatchesCascade builds the same layered tree twice and
// compacts one with CompactRange and the other level by level, L0→L1
// through L5→L6. The bottom levels must match file for file: the same
// merged entries, cut at the same TargetFileSize boundaries.
func TestCompactRangeMatchesCascade(t *testing.T) {
	var trees [2][]manifest.FileMetadata
	var entries [2][][]lsm.TableEntry
	for i := range trees {
		db, err := lsm.Open("db", crOptions(vfs.NewMem()))
		if err != nil {
			t.Fatal(err)
		}
		m, snap := buildLayeredTree(t, db)
		if i == 0 {
			err = db.CompactRange()
		} else {
			err = db.Flush()
			for lvl := 0; err == nil && lvl < manifest.NumLevels-1; lvl++ {
				err = db.CompactLevel(lvl)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		checkModel(t, db, m, snap)
		lf := db.LevelFiles()
		for lvl := 0; lvl < manifest.NumLevels-1; lvl++ {
			if len(lf[lvl]) != 0 {
				t.Fatalf("tree %d: L%d holds %d files", i, lvl, len(lf[lvl]))
			}
		}
		for _, f := range lf[manifest.NumLevels-1] {
			e, err := db.TableEntries(f.FileNum)
			if err != nil {
				t.Fatal(err)
			}
			entries[i] = append(entries[i], e)
			f.FileNum = 0 // numbering differs with the number of jobs
			trees[i] = append(trees[i], f)
		}
		snap.Release()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(trees[0]) < 2 {
		t.Fatalf("bottom level has %d files; the test needs several output cuts", len(trees[0]))
	}
	if !reflect.DeepEqual(trees[0], trees[1]) {
		t.Fatalf("CompactRange left %d bottom files, the cascade %d; their metadata differs", len(trees[0]), len(trees[1]))
	}
	if !reflect.DeepEqual(entries[0], entries[1]) {
		t.Fatal("CompactRange and the cascade wrote different entries")
	}
}
