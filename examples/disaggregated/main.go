// Disaggregated: run the LSM-KVS on a compute node against a storage node
// over TCP, with DEKs issued by a network KDS and compactions offloaded
// through a lease-based orchestrator to a storage-side worker — the
// paper's disaggregated-storage deployment (Section 6.4), on loopback.
//
// Topology (all in one process for the demo, but every arrow is a real TCP
// connection):
//
//	compute node ──vfs over TCP──▶ storage node (dstore, 1 Gbps emulated)
//	      │                              ▲ local FS
//	      │ orchestrator ◀──poll/lease── compaction worker (storage-side)
//	      │                              │
//	      └───────DEK requests────▶ KDS ◀┘ (authorization + one-time issue)
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
	// --- Storage node: a dstore server fronting its local filesystem,
	// emulating a 1 Gbps link with 200 µs round trips.
	storageDisk := vfs.NewMem()
	storage, err := dstore.NewServer(storageDisk, "127.0.0.1:0", 200*time.Microsecond, 125<<20)
	if err != nil {
		log.Fatal(err)
	}
	defer storage.Close()
	fmt.Println("storage node on", storage.Addr())

	// --- KDS: one replicated store behind a TCP front end. Only enrolled
	// servers may request DEKs; a breached server is revoked here.
	// One-time provisioning sized for the fleet: the compute node fetches
	// DEKs the worker created (and vice versa), so the budget is 2.
	policy := kds.DefaultPolicy()
	policy.MaxFetches = 2
	kdsStore := kds.NewStore(policy)
	kdsStore.Authorize("compute-1")
	kdsStore.Authorize("compaction-worker-1")
	kdsSrv, err := kds.NewServer(kdsStore, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer kdsSrv.Close()
	fmt.Println("KDS on", kdsSrv.Addr())

	// --- Compute node: the database opens over the remote filesystem.
	remoteFS, err := dstore.Dial(storage.Addr(), 4)
	if err != nil {
		log.Fatal(err)
	}
	defer remoteFS.Close()
	kdsClient := kds.NewClient("compute-1", kdsSrv.Addr())
	defer kdsClient.Close()

	cache, err := seccache.Open(vfs.NewMem(), "dek-cache.bin", []byte("compute-passkey"))
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{
		Mode:          core.ModeSHIELD,
		FS:            remoteFS,
		KDS:           kdsClient,
		Cache:         cache,
		WALBufferSize: 512,
	}

	// --- Compaction offload: the compute node runs an orchestrator that
	// leases jobs out; a worker co-located with the storage node polls for
	// them and executes with ITS OWN KDS identity and secure cache, so
	// compaction I/O never crosses the compute-storage link.
	orch, err := compactsvc.NewOrchestrator(remoteFS, "127.0.0.1:0", compactsvc.OrchestratorConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer orch.Close()
	workerKDS := kds.NewClient("compaction-worker-1", kdsSrv.Addr())
	defer workerKDS.Close()
	workerCache, err := seccache.Open(vfs.NewMem(), "worker-cache.bin", []byte("worker-passkey"))
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
	worker := compactsvc.NewWorker(storage.LocalFS(), workerWrapper, "compaction-worker-1", orch.Addr(),
		compactsvc.WorkerConfig{PollEvery: 5 * time.Millisecond})
	defer worker.Close()
	fmt.Println("orchestrator on", orch.Addr())

	db, err := core.Open("db", cfg, lsm.Options{
		MemtableSize: 256 << 10,
		Compactor:    orch,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const n = 20_000
	start := time.Now()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("sensor/%06d", i)
		v := fmt.Sprintf("reading=%d", i*i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d KV-pairs over the wire in %v\n", n, time.Since(start).Round(time.Millisecond))

	if err := db.CompactRange(); err != nil {
		log.Fatal(err)
	}
	ws := orch.WorkerStats("compaction-worker-1")
	fmt.Printf("offloaded %d compaction job(s) to the storage-side worker (%.1f MiB in, %.1f MiB out)\n",
		ws.Jobs, float64(ws.BytesRead)/(1<<20), float64(ws.BytesWritten)/(1<<20))

	v, err := db.Get([]byte("sensor/012345"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back sensor/012345 = %s\n", v)

	// What actually crossed the network / sits on the remote disk.
	stats := storage.Stats()
	fmt.Printf("storage node saw: %d writes (%.1f MiB), %d reads (%.1f MiB) — all ciphertext\n",
		stats.WriteOps, float64(stats.BytesWritten)/(1<<20),
		stats.ReadOps, float64(stats.BytesRead)/(1<<20))

	issued, fetched, denied := kdsStore.Stats()
	fmt.Printf("KDS: %d DEKs issued, %d fetches served, %d denied\n", issued, fetched, denied)
}
