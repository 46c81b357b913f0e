package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"shield/internal/lsm"
	"shield/internal/metrics"
)

// ReadWhileWriting measures read throughput while one background writer
// continuously ingests, db_bench's readwhilewriting: w.Threads reader
// goroutines run NumOps reads total against a preloaded key space while a
// dedicated writer loops until the readers finish.
func ReadWhileWriting(db *lsm.DB, w Workload) Result {
	w = w.withDefaults()
	if w.Name == "" {
		w.Name = "readwhilewriting"
	}
	kg := NewKeyGen(w.KeySize)
	vg := NewValueGen(w.ValueSize, w.Seed)

	stop := make(chan struct{})
	var writerOps atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(w.Seed + 101))
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := rng.Uint64() % w.KeyCount
			if err := db.Put(kg.Key(n), vg.Value(n)); err != nil {
				return
			}
			writerOps.Add(1)
		}
	}()

	res := run(db, w, func(t int, i uint64, rng *rand.Rand) error {
		n := rng.Uint64() % w.KeyCount
		_, err := db.Get(kg.Key(n))
		if err != nil && !errors.Is(err, lsm.ErrNotFound) {
			return err
		}
		return nil
	})
	close(stop)
	wg.Wait()
	res.Name = fmt.Sprintf("%s(bg-writes=%d)", res.Name, writerOps.Load())
	return res
}

// SeekRandom measures short range scans from random positions (db_bench
// seekrandom): each op seeks to a random key and iterates scanLen entries.
func SeekRandom(db *lsm.DB, w Workload, scanLen int) Result {
	w = w.withDefaults()
	if w.Name == "" {
		w.Name = fmt.Sprintf("seekrandom-%d", scanLen)
	}
	if scanLen <= 0 {
		scanLen = 10
	}
	kg := NewKeyGen(w.KeySize)
	return run(db, w, func(t int, i uint64, rng *rand.Rand) error {
		it, err := db.NewIter()
		if err != nil {
			return err
		}
		defer it.Close()
		n := rng.Uint64() % w.KeyCount
		for ok, steps := it.SeekGE(kg.Key(n)), 0; ok && steps < scanLen; ok, steps = it.Next(), steps+1 {
		}
		return it.Err()
	})
}

// Overwrite repeatedly rewrites an existing key space (db_bench overwrite):
// unlike fillrandom on an empty store, every write shadows a live version,
// maximizing compaction's rewrite (and under SHIELD, re-encryption) volume.
func Overwrite(db *lsm.DB, w Workload) Result {
	w = w.withDefaults()
	if w.Name == "" {
		w.Name = "overwrite"
	}
	kg := NewKeyGen(w.KeySize)
	vg := NewValueGen(w.ValueSize, w.Seed+1)
	return run(db, w, func(t int, i uint64, rng *rand.Rand) error {
		n := rng.Uint64() % w.KeyCount
		return db.Put(kg.Key(n), vg.Value(n))
	})
}

// Timed runs fn repeatedly for the given duration, reporting aggregate
// throughput — for experiments that fix wall time instead of op count.
func Timed(name string, d time.Duration, fn func() error) Result {
	hist := &metrics.Histogram{}
	start := time.Now()
	var errs int64
	for time.Since(start) < d {
		opStart := time.Now()
		if err := fn(); err != nil {
			errs++
		}
		hist.Record(time.Since(opStart))
	}
	elapsed := time.Since(start)
	return Result{
		Name:      name,
		Ops:       hist.Count(),
		Elapsed:   elapsed,
		OpsPerSec: float64(hist.Count()) / elapsed.Seconds(),
		Mean:      hist.Mean(),
		P50:       hist.Quantile(0.50),
		P99:       hist.Quantile(0.99),
		Errors:    errs,
	}
}
