// Offloaded-compaction: the paper's Section 5.6 case study end to end.
// Compactions are enqueued into an orchestrator on the compute node; a
// worker co-located with the storage node polls it for leased jobs, reads
// the DEK-ID from each input file's plaintext header, fetches the DEK
// (one-time provisioning), merges, and writes outputs under fresh DEKs —
// rotating keys as a side effect. If the worker died mid-job its lease
// would expire, its partial outputs would be swept, and the job would be
// reclaimed by another worker.
package main

import (
	"fmt"
	"log"
	"time"

	"shield/internal/compactsvc"
	"shield/internal/core"
	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/vfs"
)

func main() {
	// Storage node + emulated 1 Gbps link.
	storageDisk := vfs.NewMem()
	storage, err := dstore.NewServer(storageDisk, "127.0.0.1:0", 200*time.Microsecond, 125<<20)
	if err != nil {
		log.Fatal(err)
	}
	defer storage.Close()

	// KDS with both servers enrolled.
	kdsStore := kds.NewStore(kds.DefaultPolicy())
	kdsStore.Authorize("compute-1")
	kdsStore.Authorize("worker-1")
	kdsSrv, err := kds.NewServer(kdsStore, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer kdsSrv.Close()

	// Compaction worker on the storage node: local disk access, own KDS
	// identity, own secure cache.
	workerKDS := kds.NewClient("worker-1", kdsSrv.Addr())
	defer workerKDS.Close()
	workerCache, err := seccache.Open(vfs.NewMem(), "worker-cache.bin", []byte("worker-pass"))
	if err != nil {
		log.Fatal(err)
	}
	workerWrapper, err := core.Config{
		Mode:  core.ModeSHIELD,
		FS:    storage.LocalFS(),
		KDS:   workerKDS,
		Cache: workerCache,
	}.BuildWrapper()
	if err != nil {
		log.Fatal(err)
	}
	// Compute node.
	remoteFS, err := dstore.Dial(storage.Addr(), 4)
	if err != nil {
		log.Fatal(err)
	}
	defer remoteFS.Close()
	computeKDS := kds.NewClient("compute-1", kdsSrv.Addr())
	defer computeKDS.Close()
	computeCache, err := seccache.Open(vfs.NewMem(), "compute-cache.bin", []byte("compute-pass"))
	if err != nil {
		log.Fatal(err)
	}

	// Orchestrator on the compute node; the storage-side worker dials it.
	orch, err := compactsvc.NewOrchestrator(remoteFS, "127.0.0.1:0", compactsvc.OrchestratorConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer orch.Close()
	worker := compactsvc.NewWorker(storage.LocalFS(), workerWrapper, "worker-1", orch.Addr(),
		compactsvc.WorkerConfig{PollEvery: 5 * time.Millisecond})
	defer worker.Close()
	fmt.Println("compaction orchestrator on", orch.Addr())

	cfg := core.Config{
		Mode:          core.ModeSHIELD,
		FS:            remoteFS,
		KDS:           computeKDS,
		Cache:         computeCache,
		WALBufferSize: 512,
	}
	opts := lsm.Options{
		MemtableSize:        512 << 10,
		BaseLevelSize:       2 << 20,
		L0CompactionTrigger: 2,
		Compactor:           orch, // enqueue compactions for the worker pool
	}
	db, err := core.Open("db", cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Write enough (with overwrites) that leveled compaction has real work.
	const n = 60_000
	start := time.Now()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("item/%06d", i%20_000)
		v := fmt.Sprintf("version-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := db.CompactRange(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingest + full compaction: %v\n", time.Since(start).Round(time.Millisecond))

	ws := orch.WorkerStats("worker-1")
	fmt.Printf("offloaded worker executed %d jobs, read %.1f MiB, wrote %.1f MiB locally\n",
		ws.Jobs, float64(ws.BytesRead)/(1<<20), float64(ws.BytesWritten)/(1<<20))

	// Compaction re-encrypted everything under worker-issued DEKs; the
	// compute node resolves them through DEK-IDs transparently.
	v, err := db.Get([]byte("item/010000"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("item/010000 = %s (decrypted via metadata DEK-ID -> KDS -> secure cache)\n", v)

	issued, fetched, denied := kdsStore.Stats()
	fmt.Printf("KDS: issued=%d fetched=%d denied=%d\n", issued, fetched, denied)
	m := db.Metrics()
	fmt.Printf("engine: flushes=%d compactions=%d compacted=%.1f MiB\n",
		m.Flushes, m.Compactions, float64(m.CompactionWritten)/(1<<20))
}
