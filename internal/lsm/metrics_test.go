package lsm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"shield/internal/vfs"
)

// TestMetricsPerInstance opens two DBs in one process and puts every event
// on A: concurrent synced writes that group, a reopen that replays the WAL,
// and a full disk that poisons A into degraded mode. A's counters move;
// B's Metrics do not change at all, and B's QuotaFS refuses nothing.
func TestMetricsPerInstance(t *testing.T) {
	options := func(fs vfs.FS) Options {
		o := testOptions(fs)
		o.SyncWrites = true
		o.Logger = func(string, ...any) {}
		return o
	}
	qa, qb := vfs.NewQuota(vfs.NewMem(), 0), vfs.NewQuota(vfs.NewMem(), 0)
	optsA := options(&slowSyncFS{FS: qa, delay: 200 * time.Microsecond})
	a, err := Open("db", optsA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open("db", options(qb))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bAtOpen := b.Metrics()

	// Concurrent synced writers on A coalesce into commit groups.
	const writers, perWriter = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := a.Put([]byte(fmt.Sprintf("w%02d-%04d", w, i)), []byte("v")); err != nil {
					t.Errorf("writer %d put %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if m := a.Metrics(); m.GroupedCommits == 0 || m.GroupedWriters < 2*m.GroupedCommits {
		t.Fatalf("A: grouped_commits=%d grouped_writers=%d, want coalesced groups", m.GroupedCommits, m.GroupedWriters)
	}

	// Reopening A replays the WAL its memtable was never flushed from.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a, err = Open("db", optsA)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }() // may fail flushing into the full disk
	if a.Metrics().WALRecordsReplayed == 0 {
		t.Fatal("A: reopen replayed no WAL records")
	}

	// A's disk fills: the WAL append hits ENOSPC and A turns read-only.
	qa.SetLimit(qa.Used() + 4<<10)
	var werr error
	for i := 0; werr == nil && i < 10000; i++ {
		werr = a.Put([]byte(fmt.Sprintf("fill-%05d", i)), make([]byte, 100))
	}
	if !errors.Is(werr, ErrDegraded) {
		t.Fatalf("A: write into a full disk = %v, want ErrDegraded", werr)
	}
	if m := a.Metrics(); m.DegradedEntries != 1 || qa.NoSpaceErrors() == 0 {
		t.Fatalf("A: degraded_entries=%d no_space=%d, want 1 and > 0", m.DegradedEntries, qa.NoSpaceErrors())
	}

	if got := b.Metrics(); got != bAtOpen {
		t.Fatalf("B's counters moved on A's events:\nat open %+v\nnow     %+v", bAtOpen, got)
	}
	if n := qb.NoSpaceErrors(); n != 0 {
		t.Fatalf("B's QuotaFS counted %d refusals", n)
	}
}
