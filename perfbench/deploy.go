package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"shield/internal/compactsvc"
	"shield/internal/core"
	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/seccache"
	"shield/internal/server"
	"shield/internal/vfs"
)

// Every SHIELD deployment uses the paper's 512-byte WAL buffer and two
// encryption goroutines, plus a secure DEK cache on the data's device.
const (
	walBufferSize     = 512
	encryptionThreads = 2
	cachePath         = "seccache/dek-cache.bin"
)

var passkey = []byte("perfbench-passkey")

// cacheFreshness anchors a store's rollback epoch in the secure cache, as
// core.Open does for SHIELD deployments.
type cacheFreshness struct {
	cache *seccache.Cache
	store string
}

func (f cacheFreshness) EpochFloor() (uint64, bool)   { return f.cache.EpochFloor(f.store) }
func (f cacheFreshness) SealEpoch(epoch uint64) error { return f.cache.SealEpoch(f.store, epoch) }

// stack is one deployment under test: SHIELD or its plaintext twin,
// monolithic or disaggregated, on a device model it owns.
type stack struct {
	shield bool
	tr     *tracer
	dev    *device   // the device the data lives on (the storage node's, disaggregated)
	fs     vfs.FS    // what the engine writes through
	kds    *kdsModel // compute side; nil for the twin
	wkds   *kdsModel // compaction worker side (disaggregated SHIELD)
	cache  *seccache.Cache
	opts   lsm.Options
	dirs   []string
	inner  []lsm.FileWrapper // per DB, for core.Stats
	dbs    []*lsm.DB

	orch    *compactsvc.Orchestrator
	storage *dstore.Server
	srv     *server.Server
	srvDone chan error

	closers []func() // run in reverse after the DBs close
}

// openStack builds the deployment w runs on and opens its DBs.
func openStack(w *workload, shield bool, tr *tracer) (*stack, error) {
	s := &stack{shield: shield, tr: tr, dev: newDevice(tr), opts: w.engine, dirs: w.dirs()}
	var err error
	if w.ds {
		err = s.buildDS()
	} else {
		s.fs = s.dev
		if shield {
			store := kds.NewStore(kds.Policy{})
			store.Authorize("compute-1")
			s.kds = newKDSModel(kds.NewLocal(store, "compute-1"), tr)
		}
	}
	if err == nil {
		err = s.openDBs()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// buildDS starts a storage node on the device, reached over loopback TCP
// through dstore.Client; a networked KDS; and a storage-side compaction
// worker leasing jobs from an Orchestrator, which resolves input DEKs from
// the DEK-IDs in file headers.
func (s *stack) buildDS() error {
	storage, err := dstore.NewServer(s.dev, "127.0.0.1:0", 0, 0)
	if err != nil {
		return err
	}
	s.storage = storage
	s.closers = append(s.closers, func() { storage.Close() })

	var workerWrapper lsm.FileWrapper = lsm.NopWrapper{}
	if s.shield {
		store := kds.NewStore(kds.Policy{})
		store.Authorize("compute-1")
		store.Authorize("worker-1")
		kdsSrv, err := kds.NewServer(store, "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.closers = append(s.closers, func() { kdsSrv.Close() })
		cc, wc := kds.NewClient("compute-1", kdsSrv.Addr()), kds.NewClient("worker-1", kdsSrv.Addr())
		s.closers = append(s.closers, func() { cc.Close(); wc.Close() })
		s.kds, s.wkds = newKDSModel(cc, s.tr), newKDSModel(wc, s.tr)
		cfg := core.Config{Mode: core.ModeSHIELD, FS: s.dev, KDS: s.wkds,
			WALBufferSize: walBufferSize, EncryptionThreads: encryptionThreads}
		if workerWrapper, err = cfg.BuildWrapper(); err != nil {
			return err
		}
	}

	remote, err := dstore.Dial(storage.Addr(), 4)
	if err != nil {
		return err
	}
	s.closers = append(s.closers, func() { remote.Close() })
	s.fs = rpcFS{c: remote, tr: s.tr}

	orch, err := compactsvc.NewOrchestrator(s.fs, "127.0.0.1:0", compactsvc.OrchestratorConfig{})
	if err != nil {
		return err
	}
	s.orch = orch
	s.closers = append(s.closers, func() { orch.Close() })
	worker := compactsvc.NewWorker(s.dev, tracedWrapper{inner: workerWrapper, tr: s.tr}, "worker-1", orch.Addr(),
		compactsvc.WorkerConfig{PollEvery: 2 * time.Millisecond})
	s.closers = append(s.closers, func() { worker.Close() })
	s.opts.Compactor = tracedCompactor{inner: orch, tr: s.tr}
	return nil
}

// openDBs opens (or reopens) the secure cache and every DB with fresh
// wrappers, so a reopen resolves DEKs the way a restarted process does.
func (s *stack) openDBs() error {
	if s.shield {
		if err := s.fs.MkdirAll("seccache"); err != nil {
			return err
		}
		c, err := seccache.Open(s.fs, cachePath, passkey)
		if err != nil {
			return fmt.Errorf("open secure cache: %w", err)
		}
		s.cache = c
	}
	s.inner, s.dbs = nil, nil
	for _, dir := range s.dirs {
		cfg := core.Config{Mode: core.ModeNone, FS: s.fs}
		if s.shield {
			cfg = core.Config{Mode: core.ModeSHIELD, FS: s.fs, KDS: s.kds, Cache: s.cache,
				WALBufferSize: walBufferSize, EncryptionThreads: encryptionThreads}
		}
		inner, err := cfg.BuildWrapper()
		if err != nil {
			return err
		}
		opts := s.opts
		opts.FS = s.fs
		opts.Wrapper = tracedWrapper{inner: inner, tr: s.tr}
		if s.shield {
			opts.Freshness = cacheFreshness{cache: s.cache, store: dir}
		}
		db, err := lsm.Open(dir, opts)
		if err != nil {
			return fmt.Errorf("open %s: %w", dir, err)
		}
		s.inner = append(s.inner, inner)
		s.dbs = append(s.dbs, db)
	}
	return nil
}

func (s *stack) closeDBs() error {
	var errs []error
	for _, db := range s.dbs {
		errs = append(errs, db.Close())
	}
	s.dbs = nil
	if s.cache != nil {
		errs = append(errs, s.cache.Save())
		s.cache = nil
	}
	return errors.Join(errs...)
}

// reopen closes the DBs and opens them again, as a restart would.
func (s *stack) reopen() error {
	if err := s.closeDBs(); err != nil {
		return err
	}
	return s.openDBs()
}

// serve starts an in-process RESP server over the DBs, one shard each,
// with its default synced writes.
func (s *stack) serve() (string, error) {
	shards := make([]server.Engine, len(s.dbs))
	for i, db := range s.dbs {
		shards[i] = tracedEngine{DB: db, tr: s.tr}
	}
	srv, err := server.New(server.Config{Shards: shards})
	if err != nil {
		return "", err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return "", err
	}
	s.srv, s.srvDone = srv, make(chan error, 1)
	go func() { s.srvDone <- srv.Serve() }()
	return srv.Addr(), nil
}

func (s *stack) close() error {
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
		if err := <-s.srvDone; err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
		s.srv = nil
	}
	errs = append(errs, s.closeDBs())
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
	return errors.Join(errs...)
}

// wrapperStats sums core.Stats over the DBs' SHIELD wrappers.
func (s *stack) wrapperStats() core.WrapperStats {
	var t core.WrapperStats
	for _, w := range s.inner {
		if st, ok := core.Stats(w); ok {
			t.DEKsCreated += st.DEKsCreated
			t.KDSFetches += st.KDSFetches
			t.CacheHits += st.CacheHits
		}
	}
	return t
}

// engineMetrics sums lsm.Metrics over the DBs.
func (s *stack) engineMetrics() lsm.Metrics {
	var t lsm.Metrics
	for _, db := range s.dbs {
		m := db.Metrics()
		t.Flushes += m.Flushes
		t.Compactions += m.Compactions
		t.StallTime += m.StallTime
		t.WALSyncs += m.WALSyncs
		t.BlockCacheHits += m.BlockCacheHits
		t.BlockCacheMisses += m.BlockCacheMisses
	}
	return t
}

// liveBytes is what the DBs' directories hold on the device.
func (s *stack) liveBytes() int64 {
	var n int64
	for _, dir := range s.dirs {
		n += s.dev.mem.TotalBytes(dir + "/")
	}
	return n
}
