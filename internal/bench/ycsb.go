package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"shield/internal/lsm"
)

// YCSBWorkload identifies one of the YCSB core workloads.
type YCSBWorkload byte

// The YCSB core workloads.
const (
	YCSBA YCSBWorkload = 'A' // 50% read / 50% update, zipfian
	YCSBB YCSBWorkload = 'B' // 95% read / 5% update, zipfian
	YCSBC YCSBWorkload = 'C' // 100% read, zipfian
	YCSBD YCSBWorkload = 'D' // 95% read-latest / 5% insert
	YCSBE YCSBWorkload = 'E' // 95% scan / 5% insert, zipfian
	YCSBF YCSBWorkload = 'F' // 50% read / 50% read-modify-write, zipfian
)

// AllYCSB lists the workloads in the paper's order.
var AllYCSB = []YCSBWorkload{YCSBA, YCSBB, YCSBC, YCSBD, YCSBE, YCSBF}

// YCSBLoad preloads the record set (the paper uses 1 KiB values, larger
// than Mixgraph's).
func YCSBLoad(db *lsm.DB, w Workload) error {
	w = w.withDefaults()
	if w.ValueSize == 0 || w.ValueSize == 100 {
		w.ValueSize = 1024
	}
	return Preload(db, w)
}

// YCSB runs one core workload over a preloaded database.
func YCSB(db *lsm.DB, kind YCSBWorkload, w Workload) Result {
	w = w.withDefaults()
	if w.ValueSize == 0 || w.ValueSize == 100 {
		w.ValueSize = 1024
	}
	if w.Name == "" {
		w.Name = fmt.Sprintf("ycsb-%c", kind)
	}
	kg := NewKeyGen(w.KeySize)
	vg := NewValueGen(w.ValueSize, w.Seed)
	zipf := NewZipfian(w.KeyCount, w.Seed)

	// insertCount tracks keys appended by D/E so read-latest sees them.
	var insertCount atomic.Uint64
	nextInsert := func() uint64 {
		return w.KeyCount + insertCount.Add(1) - 1
	}
	latest := func(rng *rand.Rand) uint64 {
		// Read-latest: zipfian over recency.
		limit := w.KeyCount + insertCount.Load()
		off := zipf.Next()
		if off >= limit {
			off = limit - 1
		}
		return limit - 1 - off
	}

	read := func(n uint64) error {
		_, err := db.Get(kg.Key(n))
		if err != nil && !errors.Is(err, lsm.ErrNotFound) {
			return err
		}
		return nil
	}
	update := func(n uint64) error { return db.Put(kg.Key(n), vg.Value(n)) }
	scan := func(n uint64, length int) error {
		it, err := db.NewIter()
		if err != nil {
			return err
		}
		defer it.Close()
		for ok, steps := it.SeekGE(kg.Key(n)), 0; ok && steps < length; ok, steps = it.Next(), steps+1 {
		}
		return it.Err()
	}

	return run(db, w, func(t int, i uint64, rng *rand.Rand) error {
		switch kind {
		case YCSBA:
			if rng.Intn(100) < 50 {
				return read(zipf.ScrambledNext())
			}
			return update(zipf.ScrambledNext())
		case YCSBB:
			if rng.Intn(100) < 95 {
				return read(zipf.ScrambledNext())
			}
			return update(zipf.ScrambledNext())
		case YCSBC:
			return read(zipf.ScrambledNext())
		case YCSBD:
			if rng.Intn(100) < 95 {
				return read(latest(rng))
			}
			return update(nextInsert())
		case YCSBE:
			if rng.Intn(100) < 95 {
				return scan(zipf.ScrambledNext(), 1+rng.Intn(100))
			}
			return update(nextInsert())
		case YCSBF:
			n := zipf.ScrambledNext()
			if rng.Intn(100) < 50 {
				return read(n)
			}
			if err := read(n); err != nil {
				return err
			}
			return update(n)
		default:
			return fmt.Errorf("bench: unknown YCSB workload %c", kind)
		}
	})
}
