package main

import (
	"sync/atomic"
	"time"

	"shield/internal/crypt"
	"shield/internal/dstore"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/server"
	"shield/internal/vfs"
)

// Model constants. The device costs are the ones the repository's latency
// models document for a datacenter SSD; the KDS cost is the paper's
// SSToolkit figure. Writes are free: they land in the page cache.
const (
	devReadCost = 40 * time.Microsecond
	devSyncCost = 100 * time.Microsecond
	kdsCallCost = 2750 * time.Microsecond
)

// device is the modelled storage device: an in-memory filesystem that
// charges devReadCost per ReadAt and devSyncCost per Sync or Close of a
// written file. Sequential reads (recovery) and metadata calls are free.
type device struct {
	mem  *vfs.MemFS
	tr   *tracer
	read waitStat
	sync waitStat

	writeBytes atomic.Int64
}

func newDevice(tr *tracer) *device {
	d := &device{mem: vfs.NewMem(), tr: tr}
	d.read.nominal, d.sync.nominal = devReadCost, devSyncCost
	return d
}

func (d *device) Create(name string) (vfs.WritableFile, error) {
	f, err := d.mem.Create(name)
	if err != nil {
		return nil, err
	}
	return &devWritable{f: f, d: d}, nil
}

func (d *device) Open(name string) (vfs.RandomAccessFile, error) {
	f, err := d.mem.Open(name)
	if err != nil {
		return nil, err
	}
	return &devRandom{RandomAccessFile: f, d: d}, nil
}

func (d *device) OpenSequential(name string) (vfs.SequentialFile, error) {
	return d.mem.OpenSequential(name)
}
func (d *device) Remove(name string) error                { return d.mem.Remove(name) }
func (d *device) Rename(oldname, newname string) error    { return d.mem.Rename(oldname, newname) }
func (d *device) List(dir string) ([]vfs.FileInfo, error) { return d.mem.List(dir) }
func (d *device) MkdirAll(dir string) error               { return d.mem.MkdirAll(dir) }
func (d *device) SyncDir(dir string) error                { return d.mem.SyncDir(dir) }
func (d *device) Stat(name string) (vfs.FileInfo, error)  { return d.mem.Stat(name) }

type devWritable struct {
	f vfs.WritableFile
	d *device
}

func (w *devWritable) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.d.writeBytes.Add(int64(n))
	return n, err
}

func (w *devWritable) Sync() error {
	sp := w.d.tr.begin(spDevSync)
	w.d.sync.charge()
	err := w.f.Sync()
	w.d.tr.end(sp, 0)
	return err
}

func (w *devWritable) Close() error {
	sp := w.d.tr.begin(spDevSync)
	w.d.sync.charge()
	err := w.f.Close()
	w.d.tr.end(sp, 0)
	return err
}

type devRandom struct {
	vfs.RandomAccessFile
	d *device
}

func (r *devRandom) ReadAt(p []byte, off int64) (int, error) {
	sp := r.d.tr.begin(spDevRead)
	r.d.read.charge()
	n, err := r.RandomAccessFile.ReadAt(p, off)
	r.d.tr.end(sp, n)
	return n, err
}

// kdsModel charges kdsCallCost on every call to a kds.Service (the
// service time of key generation, authentication and authorization). Its
// spans time each call end to end, network round trip included.
type kdsModel struct {
	inner kds.Service
	tr    *tracer
	wait  waitStat
}

func newKDSModel(inner kds.Service, tr *tracer) *kdsModel {
	m := &kdsModel{inner: inner, tr: tr}
	m.wait.nominal = kdsCallCost
	return m
}

func (m *kdsModel) CreateDEK() (kds.KeyID, crypt.DEK, error) {
	sp := m.tr.begin(spKDSCreate)
	m.wait.charge()
	id, dek, err := m.inner.CreateDEK()
	m.tr.end(sp, 0)
	return id, dek, err
}

func (m *kdsModel) FetchDEK(id kds.KeyID) (crypt.DEK, error) {
	sp := m.tr.begin(spKDSFetch)
	m.wait.charge()
	dek, err := m.inner.FetchDEK(id)
	m.tr.end(sp, 0)
	return dek, err
}

func (m *kdsModel) RevokeDEK(id kds.KeyID) error {
	m.wait.charge()
	return m.inner.RevokeDEK(id)
}

// tracedWrapper times the lsm.FileWrapper seam (core's SHIELD codec, or the
// identity wrapper of the plaintext twin) and the files it returns.
type tracedWrapper struct {
	inner lsm.FileWrapper
	tr    *tracer
}

func (w tracedWrapper) WrapCreate(name string, kind lsm.FileKind, f vfs.WritableFile) (vfs.WritableFile, string, error) {
	sp := w.tr.begin(spWrapCreate)
	out, dekID, err := w.inner.WrapCreate(name, kind, f)
	w.tr.end(sp, 0)
	if err != nil {
		return nil, "", err
	}
	return &tracedWritable{f: out, tr: w.tr}, dekID, nil
}

func (w tracedWrapper) WrapOpen(name string, kind lsm.FileKind, f vfs.RandomAccessFile) (vfs.RandomAccessFile, error) {
	sp := w.tr.begin(spWrapOpen)
	out, err := w.inner.WrapOpen(name, kind, f)
	w.tr.end(sp, 0)
	if err != nil {
		return nil, err
	}
	r := &tracedRandom{RandomAccessFile: out, tr: w.tr}
	// The engine checks sealed files for a tag-chain digest; keep that
	// capability visible through the wrapper exactly when it exists.
	if d, ok := out.(digestReader); ok {
		return &tracedSealedRandom{tracedRandom: r, d: d}, nil
	}
	return r, nil
}

func (w tracedWrapper) WrapOpenSequential(name string, kind lsm.FileKind, f vfs.SequentialFile) (vfs.SequentialFile, error) {
	sp := w.tr.begin(spWrapOpen)
	out, err := w.inner.WrapOpenSequential(name, kind, f)
	w.tr.end(sp, 0)
	return out, err
}

func (w tracedWrapper) FileDeleted(name, dekID string) { w.inner.FileDeleted(name, dekID) }

type digestReader interface{ FileDigest() ([]byte, error) }

type tracedWritable struct {
	f  vfs.WritableFile
	tr *tracer
}

func (w *tracedWritable) Write(p []byte) (int, error) {
	sp := w.tr.begin(spCryptWrite)
	n, err := w.f.Write(p)
	w.tr.end(sp, n)
	return n, err
}

func (w *tracedWritable) Sync() error {
	sp := w.tr.begin(spCryptSync)
	err := w.f.Sync()
	w.tr.end(sp, 0)
	return err
}

func (w *tracedWritable) Close() error {
	sp := w.tr.begin(spCryptSync)
	err := w.f.Close()
	w.tr.end(sp, 0)
	return err
}

// FileDigest forwards the sealed writer's tag-chain digest, which the
// engine records in the manifest.
func (w *tracedWritable) FileDigest() ([]byte, bool) {
	if d, ok := w.f.(interface{ FileDigest() ([]byte, bool) }); ok {
		return d.FileDigest()
	}
	return nil, false
}

type tracedRandom struct {
	vfs.RandomAccessFile
	tr *tracer
}

func (r *tracedRandom) ReadAt(p []byte, off int64) (int, error) {
	sp := r.tr.begin(spCryptRead)
	n, err := r.RandomAccessFile.ReadAt(p, off)
	r.tr.end(sp, n)
	return n, err
}

type tracedSealedRandom struct {
	*tracedRandom
	d digestReader
}

func (r *tracedSealedRandom) FileDigest() ([]byte, error) { return r.d.FileDigest() }

// tracedCompactor times each offloaded compaction job end to end.
type tracedCompactor struct {
	inner lsm.Compactor
	tr    *tracer
}

func (c tracedCompactor) Compact(job lsm.CompactionJob) (lsm.CompactionResult, error) {
	sp := c.tr.begin(spCompact)
	res, err := c.inner.Compact(job)
	c.tr.end(sp, 0)
	return res, err
}

// tracedEngine times the server.Engine seam of one shard.
type tracedEngine struct {
	*lsm.DB
	tr *tracer
}

func (e tracedEngine) Get(key []byte) ([]byte, error) {
	sp := e.tr.begin(spEngineGet)
	v, err := e.DB.Get(key)
	e.tr.end(sp, 0)
	return v, err
}

func (e tracedEngine) Write(b *lsm.Batch, sync bool) error {
	sp := e.tr.begin(spEngineWrite)
	err := e.DB.Write(b, sync)
	e.tr.end(sp, 0)
	return err
}

var _ server.Engine = tracedEngine{}

// rpcFS times the compute node's calls into dstore.Client, one span per
// remote operation kind.
type rpcFS struct {
	c  *dstore.Client
	tr *tracer
}

func (r rpcFS) meta(fn func() error) error {
	sp := r.tr.begin(spRPCMeta)
	err := fn()
	r.tr.end(sp, 0)
	return err
}

func (r rpcFS) Create(name string) (vfs.WritableFile, error) {
	var f vfs.WritableFile
	err := r.meta(func() (err error) { f, err = r.c.Create(name); return })
	if err != nil {
		return nil, err
	}
	return &rpcWritable{f: f, tr: r.tr}, nil
}

func (r rpcFS) Open(name string) (vfs.RandomAccessFile, error) {
	var f vfs.RandomAccessFile
	err := r.meta(func() (err error) { f, err = r.c.Open(name); return })
	if err != nil {
		return nil, err
	}
	return &rpcRandom{RandomAccessFile: f, tr: r.tr}, nil
}

func (r rpcFS) OpenSequential(name string) (f vfs.SequentialFile, err error) {
	err = r.meta(func() (err error) { f, err = r.c.OpenSequential(name); return })
	return f, err
}

func (r rpcFS) Remove(name string) error {
	return r.meta(func() error { return r.c.Remove(name) })
}

func (r rpcFS) Rename(oldname, newname string) error {
	return r.meta(func() error { return r.c.Rename(oldname, newname) })
}

func (r rpcFS) List(dir string) (out []vfs.FileInfo, err error) {
	err = r.meta(func() (err error) { out, err = r.c.List(dir); return })
	return out, err
}

func (r rpcFS) MkdirAll(dir string) error {
	return r.meta(func() error { return r.c.MkdirAll(dir) })
}

func (r rpcFS) SyncDir(dir string) error {
	return r.meta(func() error { return r.c.SyncDir(dir) })
}

func (r rpcFS) Stat(name string) (fi vfs.FileInfo, err error) {
	err = r.meta(func() (err error) { fi, err = r.c.Stat(name); return })
	return fi, err
}

type rpcWritable struct {
	f  vfs.WritableFile
	tr *tracer
}

func (w *rpcWritable) Write(p []byte) (int, error) {
	sp := w.tr.begin(spRPCWrite)
	n, err := w.f.Write(p)
	w.tr.end(sp, n)
	return n, err
}

func (w *rpcWritable) Sync() error {
	sp := w.tr.begin(spRPCSync)
	err := w.f.Sync()
	w.tr.end(sp, 0)
	return err
}

func (w *rpcWritable) Close() error {
	sp := w.tr.begin(spRPCSync)
	err := w.f.Close()
	w.tr.end(sp, 0)
	return err
}

type rpcRandom struct {
	vfs.RandomAccessFile
	tr *tracer
}

func (r *rpcRandom) ReadAt(p []byte, off int64) (int, error) {
	sp := r.tr.begin(spRPCRead)
	n, err := r.RandomAccessFile.ReadAt(p, off)
	r.tr.end(sp, n)
	return n, err
}
