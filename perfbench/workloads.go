package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"

	"time"

	"shield/internal/lsm"
)

// workload is one named input set. Its shape is fixed here; only the seed
// varies between runs.
type workload struct {
	name    string
	ds      bool // disaggregated stack
	serve   bool // clients reach the DBs through a RESP server
	clients int  // client goroutines, one connection each under serve
	window  int  // serve: commands each connection keeps in flight
	shards  int

	keySpace    uint64  // fill: Put keys are uniform over [0, keySpace); read: over as many keys above the preloaded ones
	preloadKeys uint64  // read, serve: keys loaded during set-up
	zipfKeys    uint64  // serve: zipfian request keys over the preloaded set
	getShare    float64 // share of Gets among generated ops

	// sloLimit is the latency limit slo_ok_frac counts against.
	sloLimit time.Duration
	// setups is how many times set-up runs per measured run; setup_s is
	// their median and the last deployment is the one measured.
	setups int

	engine lsm.Options
}

func (w *workload) dirs() []string {
	if w.shards <= 1 {
		return []string{"db"}
	}
	out := make([]string, w.shards)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%d", i)
	}
	return out
}

// fillEngine keeps the memtable and level targets small, so a ten-second
// fill spans dozens of flush and compaction cycles. Smaller memtables made
// every new SST's KDS round trip (2.75 ms) the bottleneck and the runs
// unsteady.
var fillEngine = lsm.Options{
	MemtableSize:        1 << 20,
	BaseLevelSize:       8 << 20,
	TargetFileSize:      2 << 20,
	L0CompactionTrigger: 4,
}

var workloads = []*workload{
	{
		name: "fill", clients: 2, keySpace: 1 << 18, getShare: 0.04,
		sloLimit: time.Millisecond, setups: 5, engine: fillEngine,
	},
	{
		// 24k records (6.5 MB) against a 512 KiB block cache: 12x the cache.
		name: "read", clients: 1, preloadKeys: 24 << 10, keySpace: 1 << 20, getShare: 0.90,
		sloLimit: time.Millisecond, setups: 3,
		engine: lsm.Options{MemtableSize: 8 << 20, BlockCacheSize: 512 << 10},
	},
	{
		// 10k records (2.7 MB) over two shards with 8 MiB caches each.
		name: "serve", serve: true, clients: 2, window: 4, shards: 2,
		preloadKeys: 10 << 10, zipfKeys: 10 << 10, getShare: 0.5,
		sloLimit: 5 * time.Millisecond, setups: 3,
		engine: lsm.Options{MemtableSize: 4 << 20},
	},
	{
		name: "ds-fill", ds: true, clients: 2, keySpace: 1 << 18, getShare: 0.04,
		sloLimit: 5 * time.Millisecond, setups: 3, engine: fillEngine,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// keyBound is one more than the largest key index w's streams use.
func (w *workload) keyBound() uint64 { return max(w.preloadKeys+w.keySpace, w.zipfKeys) }

// shardOf routes a key as the RESP server does (FNV-1a mod shards).
func shardOf(key []byte, shards int) int {
	if shards == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write(key) //nolint:errcheck // fnv never errors
	return int(h.Sum32() % uint32(shards))
}

// setUp builds the deployment w measures: the stack, then for read a
// preloaded, fully compacted tree reopened so its DEKs come back through
// the secure cache, and for serve a preloaded, compacted, cache-warm
// server.
func setUp(w *workload, shield bool, tr *tracer, rec records) (*stack, string, error) {
	s, err := openStack(w, shield, tr)
	if err != nil {
		return nil, "", err
	}
	addr, err := prepare(s, w, rec)
	if err != nil {
		s.close()
		return nil, "", err
	}
	return s, addr, nil
}

func prepare(s *stack, w *workload, rec records) (string, error) {
	if w.preloadKeys == 0 {
		return "", nil
	}
	if err := preload(s, w, rec); err != nil {
		return "", err
	}
	if !w.serve {
		return "", s.reopen()
	}
	for n := uint64(0); n < w.preloadKeys; n++ {
		k := rec.key(n)
		if err := checkGet(s.dbs[shardOf(k, len(s.dbs))], k, rec.value(n)); err != nil {
			return "", fmt.Errorf("warming: %w", err)
		}
	}
	return s.serve()
}

// preload writes every preloaded key once, then flushes and compacts to a
// quiescent tree.
func preload(s *stack, w *workload, rec records) error {
	batches := make([]*lsm.Batch, len(s.dbs))
	commit := func(i int) error {
		if batches[i] == nil || batches[i].Count() == 0 {
			return nil
		}
		err := s.dbs[i].Write(batches[i], false)
		batches[i] = nil
		return err
	}
	for n := uint64(0); n < w.preloadKeys; n++ {
		k := rec.key(n)
		i := shardOf(k, len(s.dbs))
		if batches[i] == nil {
			batches[i] = lsm.NewBatch()
		}
		batches[i].Put(k, rec.value(n))
		if batches[i].Count() >= 256 {
			if err := commit(i); err != nil {
				return err
			}
		}
	}
	for i, db := range s.dbs {
		if err := commit(i); err != nil {
			return err
		}
		if err := db.CompactRange(); err != nil {
			return err
		}
	}
	return nil
}

var errWrongValue = errors.New("wrong value")

func checkGet(db *lsm.DB, key, want []byte) error {
	got, err := db.Get(key)
	if err != nil {
		return fmt.Errorf("get %q: %w", key, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("get %q: %w", key, errWrongValue)
	}
	return nil
}

// readBack checks, outside the timed phase, that the tree holds exactly
// the keys the run wrote, each with its generated value. It scans instead
// of issuing point reads, so every key is checked at one device read per
// block.
func readBack(db *lsm.DB, rec records, written *keySet) error {
	it, err := db.NewIter()
	if err != nil {
		return err
	}
	defer it.Close()
	var seen int
	for ok := it.First(); ok; ok = it.Next() {
		var n uint64
		if _, err := fmt.Sscanf(string(it.Key()), "%016d", &n); err != nil || n >= written.bound() || !written.has(n) {
			return fmt.Errorf("read-back: unexpected key %q", it.Key())
		}
		if !bytes.Equal(it.Value(), rec.value(n)) {
			return fmt.Errorf("read-back: key %q: %w", it.Key(), errWrongValue)
		}
		seen++
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("read-back: %w", err)
	}
	if seen != written.len() {
		return fmt.Errorf("read-back: %d keys in the tree, %d written", seen, written.len())
	}
	return nil
}

// medianSetup runs set-up n (>= 1) times, closing all but the last
// deployment, and returns it with the median set-up time.
func medianSetup(w *workload, shield bool, tr *tracer, rec records, n int) (*stack, string, time.Duration, error) {
	var times []float64
	for {
		start := time.Now()
		s, addr, err := setUp(w, shield, tr, rec)
		if err != nil {
			return nil, "", 0, err
		}
		times = append(times, float64(time.Since(start)))
		if len(times) == n {
			return s, addr, time.Duration(median(times)), nil
		}
		if err := s.close(); err != nil {
			return nil, "", 0, err
		}
	}
}
