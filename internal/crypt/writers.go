package crypt

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"

	"shield/internal/vfs"
)

// BufferedWriter is SHIELD's WAL writer (Section 5.3): an
// application-managed buffer that accumulates small writes and encrypts
// them in one pass when the buffer reaches its threshold (or on Sync).
//
// Each flush pays one full encryption initialization (AES key schedule +
// CTR setup via EncryptAt) — that is the cost the buffer amortizes
// over many small WAL writes. With bufSize == 0 every Write is its own
// flush, reproducing the per-write encryption bottleneck of Section 3.2.
//
// Trade-off: bytes still in the buffer are lost if the process crashes, but
// nothing ever reaches storage in plaintext.
type BufferedWriter struct {
	f       vfs.WritableFile
	key     DEK
	iv      [IVSize]byte
	off     int64 // body offset already persisted
	buf     []byte
	bufSize int
	scratch []byte
}

// NewBufferedWriter wraps f with buffered encryption; bufSize 0 flushes
// (and pays a full encryption initialization) on every Write.
func NewBufferedWriter(f vfs.WritableFile, key DEK, iv [IVSize]byte, bufSize int) *BufferedWriter {
	return &BufferedWriter{f: f, key: key, iv: iv, bufSize: bufSize}
}

// Write implements io.Writer; plaintext accumulates in the buffer.
func (w *BufferedWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	if len(w.buf) >= w.bufSize {
		if err := w.flush(); err != nil {
			// p was fully accepted into the buffer (and remains there for a
			// later flush); report it written so the caller's offsets match
			// the bytes this writer has consumed (io.Writer contract).
			return len(p), err
		}
	}
	return len(p), nil
}

func (w *BufferedWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if cap(w.scratch) < len(w.buf) {
		w.scratch = make([]byte, len(w.buf))
	}
	ct := w.scratch[:len(w.buf)]
	// Full per-flush initialization, deliberately not a cached stream.
	if err := EncryptAt(w.key, w.iv, ct, w.buf, w.off); err != nil {
		return err
	}
	if err := vfs.WriteFull(w.f, ct); err != nil {
		return err
	}
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// Sync flushes the buffer and syncs the file.
func (w *BufferedWriter) Sync() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes and closes the file.
func (w *BufferedWriter) Close() error {
	if err := w.flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ChunkedWriter encrypts an SST body in fixed-size chunks,
// optionally on multiple goroutines (Section 5.2's multi-threaded
// compaction encryption). Chunks are dispatched to workers as they fill and
// written back strictly in order, so the on-disk byte stream is identical
// to inline encryption.
type ChunkedWriter struct {
	f         vfs.WritableFile
	key       DEK
	iv        [IVSize]byte
	chunkSize int

	cur []byte // plaintext accumulating for the current chunk
	off int64  // body offset of cur's first byte

	// Sealed (format v2) mode: non-nil sealer switches chunk encryption
	// from CTR to per-block AES-GCM. nextBlock numbers blocks across
	// chunks; the tag-chain digest accumulates in retirement order, which
	// is plaintext order, so parallel and serial runs agree byte-for-byte.
	sealer    *Sealer
	nextBlock uint32
	digest    hash.Hash
	finalTag  []byte
	finalized bool

	// Parallel pipeline (nil when workers <= 1).
	jobs    chan *chunkJob
	order   []*chunkJob
	wg      sync.WaitGroup
	started bool
	workers int
	err     error
}

type chunkJob struct {
	plain    []byte
	off      int64
	firstIdx uint32 // sealed mode: index of the chunk's first block
	final    bool   // sealed mode: this chunk carries the final block
	done     chan []byte
	err      error
}

// NewChunkedWriter wraps f with chunk-granular encryption on `workers`
// goroutines (workers <= 1 encrypts inline).
func NewChunkedWriter(f vfs.WritableFile, key DEK, iv [IVSize]byte, chunkSize, workers int) *ChunkedWriter {
	if chunkSize <= 0 {
		chunkSize = 64 << 10
	}
	return &ChunkedWriter{f: f, key: key, iv: iv, chunkSize: chunkSize, workers: workers}
}

// NewChunkedSealedWriter is NewChunkedWriter for format v2: chunks are
// sealed per-block under sealer instead of CTR-encrypted. chunkSize is
// rounded up to a multiple of SealedBlockSize so chunk boundaries and block
// boundaries coincide. Sync finalizes the sealed body (no writes after), as
// NewSealedWriter does.
func NewChunkedSealedWriter(f vfs.WritableFile, sealer *Sealer, chunkSize, workers int) *ChunkedWriter {
	if chunkSize <= 0 {
		chunkSize = 64 << 10
	}
	if r := chunkSize % SealedBlockSize; r != 0 {
		chunkSize += SealedBlockSize - r
	}
	return &ChunkedWriter{f: f, sealer: sealer, chunkSize: chunkSize, workers: workers, digest: sha256.New()}
}

// sealChunk seals one chunk job: every full block non-final, then — only on
// the final job — the 0..SealedBlockSize-1 byte tail as the final block.
func (w *ChunkedWriter) sealChunk(job *chunkJob) []byte {
	p := job.plain
	idx := job.firstIdx
	out := make([]byte, 0, len(p)+((len(p)/SealedBlockSize)+1)*SealedTagSize)
	for len(p) >= SealedBlockSize {
		out = w.sealer.SealBlock(out, p[:SealedBlockSize], idx, false)
		idx++
		p = p[SealedBlockSize:]
	}
	if job.final {
		out = w.sealer.SealBlock(out, p, idx, true)
	}
	return out
}

// digestTags folds a retired chunk's block tags into the file digest.
func (w *ChunkedWriter) digestTags(job *chunkJob, ct []byte) {
	full := len(job.plain) / SealedBlockSize
	for i := 0; i < full; i++ {
		end := (i + 1) * sealedCipherBlock
		w.digest.Write(ct[end-SealedTagSize : end])
	}
	if job.final {
		w.digest.Write(ct[len(ct)-SealedTagSize:])
	}
}

func (w *ChunkedWriter) startWorkers() {
	w.jobs = make(chan *chunkJob, w.workers*2)
	for i := 0; i < w.workers; i++ {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for job := range w.jobs {
				if w.sealer != nil {
					job.done <- w.sealChunk(job)
					continue
				}
				ct := make([]byte, len(job.plain))
				job.err = EncryptAt(w.key, w.iv, ct, job.plain, job.off)
				job.done <- ct
			}
		}()
	}
	w.started = true
}

// Write implements io.Writer.
func (w *ChunkedWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.finalized {
		return 0, fmt.Errorf("crypt: write after sealed file was finalized")
	}
	consumed := 0
	for len(p) > 0 {
		if w.cur == nil {
			// A dispatched chunk keeps its buffer until it is sealed, so
			// each chunk gets a new one, allocated once at full size.
			w.cur = make([]byte, 0, w.chunkSize)
		}
		room := w.chunkSize - len(w.cur)
		n := len(p)
		if n > room {
			n = room
		}
		w.cur = append(w.cur, p[:n]...)
		consumed += n
		p = p[n:]
		if len(w.cur) >= w.chunkSize {
			if err := w.dispatch(); err != nil {
				w.err = err
				// Report the bytes actually accepted so far (io.Writer
				// contract: n < len(p) must accompany a non-nil error).
				return consumed, err
			}
		}
	}
	return consumed, nil
}

// dispatch hands the full current chunk to the pipeline (or encrypts
// inline when single-threaded).
func (w *ChunkedWriter) dispatch() error {
	return w.dispatchJob(false)
}

// dispatchJob ships the accumulated chunk; final marks the sealed tail job
// (which is dispatched even when empty — the final block is mandatory).
func (w *ChunkedWriter) dispatchJob(final bool) error {
	if len(w.cur) == 0 && !final {
		return nil
	}
	plain := w.cur
	off := w.off
	w.off += int64(len(plain))
	w.cur = nil
	job := &chunkJob{plain: plain, off: off, final: final, done: make(chan []byte, 1)}
	if w.sealer != nil {
		job.firstIdx = w.nextBlock
		w.nextBlock += uint32(len(plain) / SealedBlockSize)
		if final {
			w.nextBlock++
		}
	}

	if w.workers <= 1 {
		var ct []byte
		if w.sealer != nil {
			ct = w.sealChunk(job)
		} else {
			ct = make([]byte, len(plain))
			if err := EncryptAt(w.key, w.iv, ct, plain, off); err != nil {
				return err
			}
		}
		if err := vfs.WriteFull(w.f, ct); err != nil {
			return err
		}
		if w.sealer != nil {
			w.digestTags(job, ct)
		}
		return nil
	}

	if !w.started {
		w.startWorkers()
	}
	w.jobs <- job
	w.order = append(w.order, job)
	// Keep the pipeline bounded; retire completed chunks in order.
	for len(w.order) > w.workers*2 {
		if err := w.retireOne(); err != nil {
			return err
		}
	}
	return nil
}

// retireOne waits for the oldest in-flight chunk and writes it.
func (w *ChunkedWriter) retireOne() error {
	job := w.order[0]
	w.order = w.order[1:]
	ct := <-job.done
	if job.err != nil {
		return job.err
	}
	if err := vfs.WriteFull(w.f, ct); err != nil {
		return err
	}
	if w.sealer != nil {
		w.digestTags(job, ct)
	}
	return nil
}

// drain flushes the partial chunk and retires every in-flight chunk. In
// sealed mode the tail flush is the finalization: the partial chunk ships
// as the final job and the sealed body is complete afterwards.
func (w *ChunkedWriter) drain() error {
	if w.sealer != nil {
		if !w.finalized {
			if err := w.dispatchJob(true); err != nil {
				return err
			}
			w.finalized = true
		}
	} else if err := w.dispatch(); err != nil {
		return err
	}
	for len(w.order) > 0 {
		if err := w.retireOne(); err != nil {
			return err
		}
	}
	if w.sealer != nil && w.finalTag == nil && w.finalized {
		w.finalTag = w.digest.Sum(nil)
	}
	return nil
}

// Sync drains the pipeline and syncs the file. In sealed mode this
// finalizes the body: no writes may follow.
func (w *ChunkedWriter) Sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.drain(); err != nil {
		w.err = err
		return err
	}
	return w.f.Sync()
}

// Close drains, stops workers, and closes the file.
func (w *ChunkedWriter) Close() error {
	var derr error
	if w.err != nil {
		derr = w.err
	} else {
		derr = w.drain()
	}
	if w.started {
		close(w.jobs)
		w.wg.Wait()
		w.started = false
	}
	cerr := w.f.Close()
	if derr != nil {
		return derr
	}
	return cerr
}

// FileDigest returns the sealed tag-chain digest; ok is false for CTR-mode
// writers and before finalization.
func (w *ChunkedWriter) FileDigest() ([]byte, bool) {
	if w.finalTag == nil {
		return nil, false
	}
	return append([]byte(nil), w.finalTag...), true
}
