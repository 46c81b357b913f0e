package bench

// Benchmark-regression harness (BENCH_5.json): a short, deterministic A/B
// profile of the parallel compaction scheduler, run on the full SHIELD
// stack (per-file DEKs from an in-process KDS, chunked SST encryption,
// encrypted WAL) over an in-memory filesystem so the numbers isolate
// engine + crypto cost from device noise. The machine-readable report
// seeds the bench trajectory: every future PR reruns the same profile and
// diffs the JSON.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"shield/internal/core"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/server"
	"shield/internal/vfs"
)

// RegressConfig is one scheduler configuration in the A/B profile.
type RegressConfig struct {
	Name              string `json:"name"`
	MaxBackgroundJobs int    `json:"max_background_jobs"`
	MaxSubcompactions int    `json:"max_subcompactions"`
}

// regressConfigs is the fixed A/B pair: the serial default (one compaction
// job slot) against the parallel scheduler the tentpole added.
var regressConfigs = []RegressConfig{
	{Name: "single-job", MaxBackgroundJobs: 2, MaxSubcompactions: 1},
	{Name: "parallel", MaxBackgroundJobs: 4, MaxSubcompactions: 4},
}

// RegressWorkloadResult is one workload row in machine-readable form.
// Latencies are microseconds; stall is milliseconds.
type RegressWorkloadResult struct {
	Name                  string  `json:"name"`
	Ops                   int64   `json:"ops"`
	OpsPerSec             float64 `json:"ops_per_sec"`
	P50Micros             float64 `json:"p50_us"`
	P99Micros             float64 `json:"p99_us"`
	Errors                int64   `json:"errors"`
	Compactions           int64   `json:"compactions"`
	Subcompactions        int64   `json:"subcompactions"`
	MaxRunningJobs        int64   `json:"max_running_jobs"`
	SchedDeferred         int64   `json:"sched_deferred"`
	BytesCompactedRead    int64   `json:"bytes_compacted_read"`
	BytesCompactedWritten int64   `json:"bytes_compacted_written"`
	StallMillis           float64 `json:"stall_ms"`

	// Engine-level commit-pipeline counters for this workload: acked
	// writer batches, commit-path fsyncs they cost, and how many writers
	// rode coalesced groups. GroupCommitRatio is WALSyncs/Writes; under
	// concurrent synced writers it drops below 1.
	Writes           int64   `json:"writes,omitempty"`
	WALSyncs         int64   `json:"wal_syncs,omitempty"`
	GroupCommitRatio float64 `json:"group_commit_ratio,omitempty"`
	GroupedCommits   int64   `json:"grouped_commits,omitempty"`
	GroupedWriters   int64   `json:"grouped_writers,omitempty"`
	PrefixSeeks      int64   `json:"prefix_seeks,omitempty"`
	PrefixSkips      int64   `json:"prefix_skips,omitempty"`
}

// RegressConfigResult is all workload rows for one configuration.
type RegressConfigResult struct {
	Config    RegressConfig           `json:"config"`
	Workloads []RegressWorkloadResult `json:"workloads"`

	// Engine is the configuration's DB counters over its whole life,
	// background work outside the timed windows included. Not serialized.
	Engine lsm.Metrics `json:"-"`
}

// RegressServerResult is the serving-layer section of the report: an
// in-process shield-server over sharded SHIELD engines driven by concurrent
// pipelined RESP clients. Latencies are microseconds per command.
type RegressServerResult struct {
	Shards    int     `json:"shards"`
	Clients   int     `json:"clients"`
	Pipeline  int     `json:"pipeline"`
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	Errors    int64   `json:"errors"`
	Sets      int64   `json:"sets"`
	Gets      int64   `json:"gets"`

	// WriteBatches is the coalesced per-shard engine batches the server
	// committed; WALSyncs the fsyncs those cost. GroupCommitRatio is
	// WALSyncs/Sets — how far below one fsync per acknowledged write the
	// two coalescing levels (pipeline folding, cross-connection group
	// commit) pushed the sync rate.
	WriteBatches     int64   `json:"write_batches"`
	WALSyncs         int64   `json:"wal_syncs"`
	GroupCommitRatio float64 `json:"group_commit_ratio"`
}

// RegressGroupCommitResult is the engine-level group-commit section: a
// concurrent fully-synced fillrandom whose writers must coalesce, pushing
// the fsync count below the acked-write count.
type RegressGroupCommitResult struct {
	Threads        int     `json:"threads"`
	Ops            int64   `json:"ops"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	Writes         int64   `json:"writes"`
	WALSyncs       int64   `json:"wal_syncs"`
	GroupedCommits int64   `json:"grouped_commits"`
	GroupedWriters int64   `json:"grouped_writers"`

	// Ratio is WALSyncs/Writes — the headline the commit pipeline is
	// accountable for: strictly below 1 whenever writers coalesced.
	Ratio float64 `json:"group_commit_ratio"`
}

// RegressYCSBResult is the YCSB section for one read-path configuration:
// the A/B/C core mixes over the same preloaded, L0-resident record set,
// with the block cache far smaller than the working set. With PinL0AndMeta
// off the LRU thrashes and most reads pay the emulated device latency;
// with it on, L0 data and table metadata sit in the pinned class and reads
// are served from memory.
type RegressYCSBResult struct {
	PinL0AndMeta bool                    `json:"pin_l0_and_meta"`
	Records      int64                   `json:"records"`
	Workloads    []RegressWorkloadResult `json:"workloads"`

	// Block-cache state after the run (per-DB gauges, not process deltas).
	BlockCacheHits   int64 `json:"block_cache_hits"`
	BlockCacheMisses int64 `json:"block_cache_misses"`
	BlockCachePinned int64 `json:"block_cache_pinned_bytes"`
}

// RegressReport is the BENCH_5.json schema.
type RegressReport struct {
	Schema      string                `json:"schema"`
	GeneratedAt string                `json:"generated_at"`
	GoVersion   string                `json:"go_version"`
	NumCPU      int                   `json:"num_cpu"`
	Scale       float64               `json:"scale"`
	Configs     []RegressConfigResult `json:"configs"`

	// Server is the serving-layer profile (nil in reports predating it).
	Server *RegressServerResult `json:"server,omitempty"`

	// GroupCommit is the engine-level commit-pipeline profile (nil in
	// reports predating it).
	GroupCommit *RegressGroupCommitResult `json:"group_commit,omitempty"`

	// YCSB holds the A/B/C mixes with the pinned read path off vs on
	// (empty in reports predating it).
	YCSB []RegressYCSBResult `json:"ycsb,omitempty"`

	// ParallelSpeedupFillRandom is fillrandom ops/s of the parallel
	// configuration over the single-job configuration, same process, same
	// workload — the headline number the scheduler PR is accountable for.
	ParallelSpeedupFillRandom float64 `json:"parallel_speedup_fillrandom"`

	// YCSBCPinReadWin is YCSB-C read throughput with PinL0AndMeta on over
	// the same mix with it off — the read-path headline; above 1 means
	// pinning paid for itself.
	YCSBCPinReadWin float64 `json:"ycsb_c_pin_read_win,omitempty"`
}

// WriteJSON writes the report, indented, to w.
func (r *RegressReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadRegressReport parses a report previously written by WriteJSON. Older
// schema versions parse fine: fields they predate stay zero and the gate
// only checks what the baseline actually recorded.
func ReadRegressReport(r io.Reader) (*RegressReport, error) {
	var rep RegressReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: parse baseline report: %w", err)
	}
	return &rep, nil
}

// CompareBaseline gates the current report against a prior one (the
// committed BENCH_5.json) and returns a list of human-readable failures,
// empty on pass. Absolute throughput is machine-dependent, so the gate
// checks self-relative ratios — numbers that compare a configuration
// against its sibling in the same process — plus the invariants the commit
// pipeline and pinned read path must hold regardless of baseline:
//
//   - parallel fillrandom speedup must not collapse below 75% of baseline
//   - the server group-commit ratio must not exceed the baseline ratio by
//     more than 25% (lower is better; small absolute slack for tiny runs)
//   - the engine group-commit ratio must be strictly below 1
//   - the YCSB-C pinned read win must be strictly above 1
func CompareBaseline(cur, baseline *RegressReport) []string {
	var fails []string
	if baseline.ParallelSpeedupFillRandom > 0 {
		floor := baseline.ParallelSpeedupFillRandom * 0.75
		if cur.ParallelSpeedupFillRandom < floor {
			fails = append(fails, fmt.Sprintf(
				"parallel_speedup_fillrandom %.2f regressed below %.2f (75%% of baseline %.2f)",
				cur.ParallelSpeedupFillRandom, floor, baseline.ParallelSpeedupFillRandom))
		}
	}
	if baseline.Server != nil && cur.Server != nil && baseline.Server.GroupCommitRatio > 0 {
		ceil := baseline.Server.GroupCommitRatio*1.25 + 0.05
		if cur.Server.GroupCommitRatio > ceil {
			fails = append(fails, fmt.Sprintf(
				"server group_commit_ratio %.3f regressed above %.3f (baseline %.3f)",
				cur.Server.GroupCommitRatio, ceil, baseline.Server.GroupCommitRatio))
		}
	}
	if baseline.GroupCommit != nil && cur.GroupCommit != nil && baseline.GroupCommit.Ratio > 0 {
		ceil := baseline.GroupCommit.Ratio*1.25 + 0.05
		if cur.GroupCommit.Ratio > ceil {
			fails = append(fails, fmt.Sprintf(
				"engine group_commit_ratio %.3f regressed above %.3f (baseline %.3f)",
				cur.GroupCommit.Ratio, ceil, baseline.GroupCommit.Ratio))
		}
	}
	if baseline.YCSBCPinReadWin > 0 {
		floor := baseline.YCSBCPinReadWin * 0.75
		if cur.YCSBCPinReadWin < floor {
			fails = append(fails, fmt.Sprintf(
				"ycsb_c_pin_read_win %.2f regressed below %.2f (75%% of baseline %.2f)",
				cur.YCSBCPinReadWin, floor, baseline.YCSBCPinReadWin))
		}
	}
	// Baseline-independent invariants: these hold by construction of the
	// commit pipeline and the pinned read path, on any machine.
	if cur.GroupCommit != nil && cur.GroupCommit.Ratio >= 1 {
		fails = append(fails, fmt.Sprintf(
			"engine group_commit_ratio %.3f is not below 1: concurrent synced writers never coalesced",
			cur.GroupCommit.Ratio))
	}
	if len(cur.YCSB) > 0 && cur.YCSBCPinReadWin <= 1 {
		fails = append(fails, fmt.Sprintf(
			"ycsb_c_pin_read_win %.2f is not above 1: pinning L0+meta did not help the read path",
			cur.YCSBCPinReadWin))
	}
	return fails
}

// regressRow converts a harness result plus engine metrics into a report
// row.
func regressRow(r Result) RegressWorkloadResult {
	return RegressWorkloadResult{
		Name:                  r.Name,
		Ops:                   r.Ops,
		OpsPerSec:             r.OpsPerSec,
		P50Micros:             float64(r.P50.Nanoseconds()) / 1e3,
		P99Micros:             float64(r.P99.Nanoseconds()) / 1e3,
		Errors:                r.Errors,
		Compactions:           r.Engine.Compactions,
		Subcompactions:        r.Engine.Subcompactions,
		MaxRunningJobs:        r.Engine.CompactionsPeak,
		SchedDeferred:         r.Engine.CompactionsQueued,
		BytesCompactedRead:    r.Engine.CompactionRead,
		BytesCompactedWritten: r.Engine.CompactionWritten,
		StallMillis:           float64(r.Engine.StallTime) / 1e6,
		Writes:                r.Engine.Writes,
		WALSyncs:              r.Engine.WALSyncs,
		GroupCommitRatio:      r.Engine.GroupCommitRatio(),
		GroupedCommits:        r.Engine.GroupedCommits,
		GroupedWriters:        r.Engine.GroupedWriters,
		PrefixSeeks:           r.Engine.PrefixSeeks,
		PrefixSkips:           r.Engine.PrefixSkips,
	}
}

// regressReadLatency is the emulated device latency charged to every SST
// block read (vfs.NewReadLatency — the monolithic-SSD storage model the
// experiments use). It is what makes the profile meaningful on small or
// single-core CI machines: compaction becomes read-latency-bound, and the
// parallel scheduler wins by overlapping device waits across jobs and
// subcompaction shards rather than by burning more cores.
const regressReadLatency = 40 * time.Microsecond

// regressSyncLatency is the emulated device cost of a WAL fsync
// (vfs.NewSyncLatency) in the group-commit profile. With syncs free (pure
// memfs) commits retire faster than writers can queue and nothing
// coalesces; a realistic barrier cost is exactly what the leader/follower
// pipeline amortizes.
const regressSyncLatency = 100 * time.Microsecond

// openRegressDB builds a fresh full-SHIELD deployment tuned so the scaled
// workload is compaction-bound: a small memtable flushes constantly, a low
// L0 stall threshold makes write throughput track compaction drain rate,
// and small target files give subcompactions multiple outputs per job.
func openRegressDB(cfg RegressConfig) (*lsm.DB, error) {
	return core.Open("db", core.Config{
		Mode:              core.ModeSHIELD,
		FS:                vfs.NewReadLatency(vfs.NewMem(), regressReadLatency),
		KDS:               kds.NewLocal(kds.NewStore(kds.Policy{MaxFetches: 1}), "bench-server"),
		WALBufferSize:     512,
		EncryptionThreads: 2,
	}, lsm.Options{
		MemtableSize:        256 << 10,
		L0CompactionTrigger: 2,
		L0StopWritesTrigger: 6,
		BaseLevelSize:       512 << 10,
		TargetFileSize:      128 << 10,
		MaxBackgroundJobs:   cfg.MaxBackgroundJobs,
		MaxSubcompactions:   cfg.MaxSubcompactions,
	})
}

// RunRegression executes the regression profile: for each scheduler
// configuration, fillrandom into an empty tree, readrandom over the
// resulting keys, then overwrite — identical workloads, seeds, and thread
// counts, so the only variable is the scheduler. Progress rows go to out
// (nil discards).
func RunRegression(scale float64, out io.Writer) (*RegressReport, error) {
	if scale <= 0 {
		scale = 1.0
	}
	if out == nil {
		out = io.Discard
	}
	ops := int(40000 * scale)
	if ops < 2000 {
		ops = 2000
	}

	report := &RegressReport{
		Schema:      "shield-bench-regress/v2",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Scale:       scale,
	}

	fillRate := make(map[string]float64)
	for _, cfg := range regressConfigs {
		db, err := openRegressDB(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: open %s: %w", cfg.Name, err)
		}
		fmt.Fprintf(out, "-- %s (jobs=%d, subcompactions=%d)\n",
			cfg.Name, cfg.MaxBackgroundJobs, cfg.MaxSubcompactions)

		base := Workload{
			NumOps:    ops,
			KeyCount:  uint64(ops),
			ValueSize: 256,
			Threads:   4,
			Seed:      1789,
		}
		cr := RegressConfigResult{Config: cfg}
		run := func(r Result) {
			fmt.Fprintln(out, r)
			cr.Workloads = append(cr.Workloads, regressRow(r))
		}

		fill := FillRandom(db, base)
		run(fill)
		fillRate[cfg.Name] = fill.OpsPerSec
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, fmt.Errorf("bench: flush %s: %w", cfg.Name, err)
		}
		// Drain the compaction debt fillrandom left behind so both
		// configurations start readrandom from the same quiescent tree.
		if err := db.CompactRange(); err != nil {
			db.Close()
			return nil, fmt.Errorf("bench: compact %s: %w", cfg.Name, err)
		}

		read := base
		read.Name = "readrandom"
		run(ReadRandom(db, read))

		over := base
		over.Name = "overwrite"
		over.Seed = 2297
		run(FillRandom(db, over))

		cr.Engine = db.Metrics()
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("bench: close %s: %w", cfg.Name, err)
		}
		report.Configs = append(report.Configs, cr)
	}

	if s, p := fillRate["single-job"], fillRate["parallel"]; s > 0 {
		report.ParallelSpeedupFillRandom = p / s
	}
	fmt.Fprintf(out, "-- parallel fillrandom speedup: %.2fx\n", report.ParallelSpeedupFillRandom)

	gc, err := runGroupCommitRegression(ops, out)
	if err != nil {
		return nil, err
	}
	report.GroupCommit = gc

	ycsb, win, err := runYCSBRegression(ops, out)
	if err != nil {
		return nil, err
	}
	report.YCSB = ycsb
	report.YCSBCPinReadWin = win

	srv, err := runServerRegression(ops, out)
	if err != nil {
		return nil, err
	}
	report.Server = srv
	return report, nil
}

// runGroupCommitRegression profiles the engine-level commit pipeline: a
// fully-synced concurrent fillrandom where every Put demands durability, so
// the only thing standing between the workload and one fsync per write is
// leader/follower coalescing. The ratio this reports is the acceptance
// headline: strictly below 1, or the pipeline is not grouping.
func runGroupCommitRegression(ops int, out io.Writer) (*RegressGroupCommitResult, error) {
	const threads = 8
	db, err := core.Open("db", core.Config{
		Mode:          core.ModeSHIELD,
		FS:            vfs.NewSyncLatency(vfs.NewMem(), regressSyncLatency),
		KDS:           kds.NewLocal(kds.NewStore(kds.Policy{MaxFetches: 1}), "bench-group-commit"),
		WALBufferSize: 512,
	}, lsm.Options{
		MemtableSize: 1 << 20,
		SyncWrites:   true,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: open group-commit db: %w", err)
	}
	defer db.Close() //nolint:errcheck // bench teardown

	fmt.Fprintf(out, "-- group commit (threads=%d, every write synced)\n", threads)
	res := FillRandom(db, Workload{
		Name:      "fillrandom-sync",
		NumOps:    ops,
		KeyCount:  uint64(ops),
		ValueSize: 256,
		Threads:   threads,
		Seed:      1789,
	})
	fmt.Fprintln(out, res)

	gc := &RegressGroupCommitResult{
		Threads:        threads,
		Ops:            res.Ops,
		OpsPerSec:      res.OpsPerSec,
		Writes:         res.Engine.Writes,
		WALSyncs:       res.Engine.WALSyncs,
		GroupedCommits: res.Engine.GroupedCommits,
		GroupedWriters: res.Engine.GroupedWriters,
		Ratio:          res.Engine.GroupCommitRatio(),
	}
	fmt.Fprintf(out, "-- engine group commit: %d writes -> %d wal syncs (ratio %.3f, %d coalesced groups)\n",
		gc.Writes, gc.WALSyncs, gc.Ratio, gc.GroupedCommits)
	return gc, nil
}

// ycsbMixes is the subset of the core workloads the regression profile runs:
// the update-heavy, read-mostly, and read-only zipfian mixes.
var ycsbMixes = []YCSBWorkload{YCSBA, YCSBB, YCSBC}

// runYCSBRegression runs the YCSB A/B/C mixes twice over identical
// L0-resident record sets — PinL0AndMeta off, then on — with a block cache
// far smaller than the working set and the emulated device latency charged
// to every uncached block read. The pin-off run thrashes the LRU; the
// pin-on run serves L0 from the pinned class after first touch. The
// returned win is pin-on YCSB-C throughput over pin-off.
func runYCSBRegression(ops int, out io.Writer) ([]RegressYCSBResult, float64, error) {
	records := ops / 4
	if records < 1000 {
		records = 1000
	}
	var results []RegressYCSBResult
	ycsbC := make(map[bool]float64)
	for _, pin := range []bool{false, true} {
		db, err := core.Open("db", core.Config{
			Mode:              core.ModeSHIELD,
			FS:                vfs.NewReadLatency(vfs.NewMem(), regressReadLatency),
			KDS:               kds.NewLocal(kds.NewStore(kds.Policy{MaxFetches: 1}), "bench-ycsb"),
			WALBufferSize:     512,
			EncryptionThreads: 2,
		}, lsm.Options{
			MemtableSize:        256 << 10,
			L0CompactionTrigger: 1 << 10, // keep the record set resident in L0
			L0StopWritesTrigger: 1 << 11,
			BlockCacheSize:      64 << 10, // far below the record set: unpinned reads thrash
			PinL0AndMeta:        pin,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("bench: open ycsb db (pin=%v): %w", pin, err)
		}
		fmt.Fprintf(out, "-- ycsb (records=%d, pin_l0_and_meta=%v)\n", records, pin)
		if err := YCSBLoad(db, Workload{KeyCount: uint64(records), Seed: 1789}); err != nil {
			db.Close() //nolint:errcheck // bench teardown
			return nil, 0, fmt.Errorf("bench: ycsb load (pin=%v): %w", pin, err)
		}

		res := RegressYCSBResult{PinL0AndMeta: pin, Records: int64(records)}
		for _, kind := range ycsbMixes {
			r := YCSB(db, kind, Workload{
				NumOps:   ops,
				KeyCount: uint64(records),
				Threads:  4,
				Seed:     1789,
			})
			fmt.Fprintln(out, r)
			res.Workloads = append(res.Workloads, regressRow(r))
			if kind == YCSBC {
				ycsbC[pin] = r.OpsPerSec
			}
		}
		m := db.Metrics()
		res.BlockCacheHits = m.BlockCacheHits
		res.BlockCacheMisses = m.BlockCacheMisses
		res.BlockCachePinned = m.BlockCachePinned
		if err := db.Close(); err != nil {
			return nil, 0, fmt.Errorf("bench: close ycsb db (pin=%v): %w", pin, err)
		}
		results = append(results, res)
	}
	var win float64
	if ycsbC[false] > 0 {
		win = ycsbC[true] / ycsbC[false]
	}
	fmt.Fprintf(out, "-- ycsb-c pinned read win: %.2fx\n", win)
	return results, win, nil
}

// runServerRegression boots an in-process shield-server over four full-SHIELD
// shards and drives it with concurrent pipelined RESP clients, recording
// serving throughput/latency and the group-commit ratio.
func runServerRegression(ops int, out io.Writer) (*RegressServerResult, error) {
	const (
		nShards  = 4
		nClients = 8
		pipeline = 16
	)
	var shards []server.Engine
	var dbs []*lsm.DB
	closeAll := func() {
		for _, db := range dbs {
			db.Close() //nolint:errcheck // bench teardown
		}
	}
	for i := 0; i < nShards; i++ {
		db, err := core.Open("db", core.Config{
			Mode:          core.ModeSHIELD,
			FS:            vfs.NewMem(),
			KDS:           kds.NewLocal(kds.NewStore(kds.Policy{MaxFetches: 1}), fmt.Sprintf("bench-server-%d", i)),
			WALBufferSize: 512,
		}, lsm.Options{
			MemtableSize: 1 << 20,
		})
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("bench: open server shard %d: %w", i, err)
		}
		dbs = append(dbs, db)
		shards = append(shards, db)
	}
	defer closeAll()

	srv, err := server.New(server.Config{Shards: shards})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	defer func() {
		srv.Close() //nolint:errcheck // Close only returns nil
		<-serveErr
	}()

	fmt.Fprintf(out, "-- server (shards=%d, clients=%d, pipeline=%d)\n", nShards, nClients, pipeline)
	res, err := RunNet(NetWorkload{
		Name:     "server-mixed",
		Addr:     srv.Addr(),
		Clients:  nClients,
		Pipeline: pipeline,
		NumOps:   ops,
		ReadPct:  50,
		Seed:     1789,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, res)

	sr := &RegressServerResult{
		Shards:    nShards,
		Clients:   res.Clients,
		Pipeline:  res.Pipeline,
		Ops:       res.Ops,
		OpsPerSec: res.OpsPerSec,
		P50Micros: float64(res.P50.Nanoseconds()) / 1e3,
		P99Micros: float64(res.P99.Nanoseconds()) / 1e3,
		Errors:    res.Errors,
		Sets:      res.Sets,
		Gets:      res.Gets,
	}
	for _, snap := range srv.Stats() {
		sr.WriteBatches += snap.WriteBatches
		sr.WALSyncs += snap.Engine.WALSyncs
	}
	if sr.Sets > 0 {
		sr.GroupCommitRatio = float64(sr.WALSyncs) / float64(sr.Sets)
	}
	fmt.Fprintf(out, "-- group commit: %d sets -> %d batches -> %d wal syncs (ratio %.3f)\n",
		sr.Sets, sr.WriteBatches, sr.WALSyncs, sr.GroupCommitRatio)
	return sr, nil
}
