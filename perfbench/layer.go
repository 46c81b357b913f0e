package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// layerRun splits the run into three equal phases on fresh deployments:
// SHIELD untraced (the reference for tracing overhead and the runtime
// counters), SHIELD traced, and the plaintext (core.ModeNone) twin traced
// on the same device model.
func layerRun(w *workload, seed int64, rec records, d time.Duration) (*result, []string, error) {
	d /= 3
	plain, err := runPhase(w, true, nil, seed, rec, d, 1)
	if err != nil {
		return nil, nil, err
	}
	logPhase(w, "shield", plain)
	trS, trN := newTracer(), newTracer()
	sh, err := runPhase(w, true, trS, seed, rec, d, 1)
	if err != nil {
		return nil, nil, err
	}
	logPhase(w, "shield-traced", sh)
	none, err := runPhase(w, false, trN, seed, rec, d, 1)
	if err != nil {
		return nil, nil, err
	}
	logPhase(w, "none-traced", none)

	m := map[string]metric{}
	layerMetrics(m, "", sh)
	layerMetrics(m, "none.", none)
	m["none.ops_s"] = metric{opsPerSec(none), "1/s"}
	m["core.overhead_vs_none"] = metric{ratio(opsPerSec(sh), opsPerSec(none)), "ratio"}
	m["bench.trace_overhead_frac"] = metric{ratio(meanLatency(sh), meanLatency(plain)) - 1, "fraction"}
	// The p99s live here, not among the end-to-end metrics: across seeds
	// they spread by more than any end-to-end bound may be (README.md).
	m["client.put_p99_us"] = metric{percentile(plain.loop.put, 0.99), "us"}
	m["client.get_p99_us"] = metric{percentile(plain.loop.get, 0.99), "us"}
	m["bench.put_samples"] = metric{float64(len(plain.loop.put)), "count"}
	m["bench.get_samples"] = metric{float64(len(plain.loop.get)), "count"}
	dOps := float64(plain.loop.ok())
	m["proc.alloc_b_per_op"] = metric{ratio(plain.after.allocBytes-plain.before.allocBytes, dOps), "B"}
	m["proc.gc_cpu_frac"] = metric{ratio(plain.after.gcCPU-plain.before.gcCPU, plain.after.procCPU-plain.before.procCPU), "fraction"}

	for mode, tr := range map[string]*tracer{"shield": trS, "none": trN} {
		// One file per workload and mode: the last traced run's spans, so
		// repeated runs do not pile up trace files.
		path := filepath.Join(traceDir, fmt.Sprintf("%s-%s.tsv.gz", w.name, mode))
		if err := tr.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	var probs []string
	var attempted, failed int64
	for _, p := range []struct {
		label string
		p     *phase
	}{{"shield", plain}, {"shield-traced", sh}, {"none-traced", none}} {
		probs = append(probs, problems(p.label, p.p)...)
		attempted += p.p.loop.attempted
		failed += p.p.loop.failed
	}
	return &result{Attempted: attempted, Failed: failed, Metrics: m}, probs, nil
}

func opsPerSec(p *phase) float64 { return float64(p.loop.inTime) / p.loop.elapsed.Seconds() }

func meanLatency(p *phase) float64 {
	var sum float64
	for _, xs := range [][]int64{p.loop.put, p.loop.get} {
		for _, x := range xs {
			sum += float64(x)
		}
	}
	return ratio(sum, float64(len(p.loop.put)+len(p.loop.get)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives one traced phase's per-layer metrics. Per-Put and
// per-Get figures divide the spans under Put (or Get) roots by the number
// of those operations; a layer that a workload does not reach reads 0.
func layerMetrics(m map[string]metric, prefix string, p *phase) {
	t := p.trace
	b, a := p.before, p.after
	put, get := &t.agg[classPut], &t.agg[classGet]
	nPut := float64(put[spPut].n + put[spEngineWrite].n)
	if a.sets > b.sets {
		nPut = float64(a.sets - b.sets) // a server write batch carries several SETs
	}
	nGet := float64(get[spGet].n + get[spEngineGet].n)
	us := func(ns int64, n float64) float64 { return ratio(float64(ns)/1e3, n) }
	set := func(name string, v float64, unit string) { m[prefix+name] = metric{v, unit} }

	putNS := put[spPut].durNS + put[spEngineWrite].durNS
	getNS := get[spGet].durNS + get[spEngineGet].durNS
	seal := put[spCryptWrite].selfNS + put[spCryptSync].selfNS
	open := get[spCryptRead].selfNS
	set("lsm.put_self_us", us(put[spPut].selfNS+put[spEngineWrite].selfNS, nPut), "us")
	set("lsm.get_self_us", us(get[spGet].selfNS+get[spEngineGet].selfNS, nGet), "us")
	set("crypt.seal_self_us", us(seal, nPut), "us")
	set("crypt.seal_share", ratio(float64(seal), float64(putNS)), "fraction")
	set("crypt.open_self_us", us(open, nGet), "us")
	set("crypt.open_share", ratio(float64(open), float64(getNS)), "fraction")
	// Disaggregated, each read or sync RPC is one device operation on the
	// storage node, which runs on the node's own goroutines.
	set("vfs.reads_per_get", ratio(float64(get[spDevRead].n+get[spRPCRead].n), nGet), "count")
	set("vfs.read_kb_per_get", ratio(float64(get[spDevRead].bytes+get[spRPCRead].bytes)/1024, nGet), "KiB")
	set("vfs.syncs_per_put", ratio(float64(put[spDevSync].n+put[spRPCSync].n), nPut), "count")

	eng := a.eng
	hits, misses := eng.BlockCacheHits-b.eng.BlockCacheHits, eng.BlockCacheMisses-b.eng.BlockCacheMisses
	set("cache.hit_frac", ratio(float64(hits), float64(hits+misses)), "fraction")
	set("lsm.stall_ms", float64(eng.StallTime-b.eng.StallTime)/1e6, "ms")
	set("lsm.flushes", float64(eng.Flushes-b.eng.Flushes), "count")
	set("lsm.compactions", float64(eng.Compactions-b.eng.Compactions), "count")
	set("lsm.wal_syncs_per_put", ratio(float64(eng.WALSyncs-b.eng.WALSyncs), nPut), "count")
	userBytes := nPut * (keySize + valueSize)
	set("lsm.write_amp", ratio(float64(a.writeBytes-b.writeBytes), userBytes), "ratio")
	rd, sy := a.read.sub(b.read), a.sync.sub(b.sync)
	set("vfs.read_wait_us", rd.meanUS(), "us")
	set("vfs.sync_wait_us", sy.meanUS(), "us")

	if prefix != "" {
		return // the twin has no SHIELD, server or disaggregated layers of its own to report
	}
	mean := func(k spanKind) float64 { return us(t.total[k].durNS, float64(t.total[k].n)) }
	set("core.wrap_open_us", mean(spWrapOpen), "us")
	set("core.wrap_create_us", mean(spWrapCreate), "us")
	// Key-management counters and the span-derived figures below cover the
	// whole traced deployment, set-up included: that is where a reopen
	// resolves its DEKs.
	set("core.deks_created", float64(a.wrapper.DEKsCreated), "count")
	set("core.kds_fetches", float64(a.wrapper.KDSFetches), "count")
	set("core.seccache_hits", float64(a.wrapper.CacheHits), "count")
	set("kds.create_us", mean(spKDSCreate), "us")
	set("kds.fetch_us", mean(spKDSFetch), "us")
	set("kds.calls", float64(t.total[spKDSCreate].n+t.total[spKDSFetch].n), "count")

	serverSelf := 0.0
	if a.sets > b.sets {
		cmds := float64(p.loop.ok())
		serverSelf = meanLatency(p)/1e3 - ratio(float64(putNS+getNS), cmds)/1e3
	}
	set("server.self_us", serverSelf, "us")
	set("server.batch_size_mean", ratio(float64(a.sets-b.sets), float64(a.batches-b.batches)), "count")

	set("dstore.read_rpc_us", mean(spRPCRead), "us")
	set("dstore.write_us", mean(spRPCWrite), "us")
	set("dstore.sync_rpc_us", mean(spRPCSync), "us")
	set("dstore.meta_rpc_us", mean(spRPCMeta), "us")
	st := a.storage.Sub(b.storage)
	rpcs := st.WriteOps + st.ReadOps + st.Syncs + st.Creates + st.Opens + st.Removes
	set("dstore.rpcs_per_put", ratio(float64(rpcs), nPut), "count")
	set("compactsvc.job_ms", mean(spCompact)/1e3, "ms")
	set("compactsvc.jobs", float64(t.total[spCompact].n), "count")
	set("compactsvc.reclaims", float64(a.orch.Expired-b.orch.Expired), "count")
	set("bench.spans", float64(t.spans), "count")
}
