package crypt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"shield/internal/vfs"
)

func newTestSealer(t testing.TB) (*Sealer, DEK) {
	t.Helper()
	dek, err := NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSealer(dek, []byte("8bytepfx"), []byte("file-header-aad"))
	if err != nil {
		t.Fatal(err)
	}
	return s, dek
}

// sealToMem writes payload through a SealedWriter and returns the raw body.
func sealToMem(t testing.TB, s *Sealer, payload []byte) []byte {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	w := NewSealedWriter(f, s)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := vfs.ReadFile(fs, "f")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func openSealed(t testing.TB, s *Sealer, body []byte) (*SealedReaderAt, error) {
	t.Helper()
	fs := vfs.NewMem()
	if err := vfs.WriteFile(fs, "f", body); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	return NewSealedReaderAt(f, s, 0)
}

func TestSealedRoundTripSizes(t *testing.T) {
	s, _ := newTestSealer(t)
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, SealedBlockSize - 1, SealedBlockSize,
		SealedBlockSize + 1, 3 * SealedBlockSize, 3*SealedBlockSize + 37} {
		payload := make([]byte, size)
		rng.Read(payload)
		body := sealToMem(t, s, payload)

		// The layout invariant: every file ends with a mandatory final
		// block, so the body is never a clean multiple of the cipher block.
		wantLen := (size/SealedBlockSize+1)*SealedTagSize + size
		if len(body) != wantLen {
			t.Fatalf("size %d: body %d bytes, want %d", size, len(body), wantLen)
		}

		r, err := openSealed(t, s, body)
		if err != nil {
			t.Fatalf("size %d: open: %v", size, err)
		}
		if ps, _ := r.Size(); ps != int64(size) {
			t.Fatalf("size %d: plain size %d", size, ps)
		}
		got := make([]byte, size)
		if size > 0 {
			if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatalf("size %d: read: %v", size, err)
			}
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
		r.Close()
	}
}

func TestSealedTamperEveryRegionDetected(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 2*SealedBlockSize+100)
	rand.New(rand.NewSource(8)).Read(payload)
	body := sealToMem(t, s, payload)

	// Flip one bit in a sample of positions covering every block and both
	// ciphertext and tag bytes; each must surface as vfs.ErrIntegrity from
	// the read covering it, never as silently different plaintext.
	for pos := 0; pos < len(body); pos += 997 {
		mut := append([]byte(nil), body...)
		mut[pos] ^= 0x40
		r, err := openSealed(t, s, mut)
		if err != nil {
			if !errors.Is(err, vfs.ErrIntegrity) {
				t.Fatalf("pos %d: open error not integrity: %v", pos, err)
			}
			continue
		}
		got := make([]byte, len(payload))
		_, err = r.ReadAt(got, 0)
		r.Close()
		if err == nil || !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("pos %d: tamper not detected (err=%v)", pos, err)
		}
	}
}

func TestSealedTruncationDetected(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 2*SealedBlockSize+100)
	rand.New(rand.NewSource(9)).Read(payload)
	body := sealToMem(t, s, payload)

	cuts := []int{
		len(body) - 1,                   // inside the final block
		len(body) - 100 - SealedTagSize, // exactly at the last full-block boundary
		sealedCipherBlock,               // after one full block
		SealedTagSize - 1,               // shorter than one tag
		0,                               // empty body
	}
	for _, cut := range cuts {
		r, err := openSealed(t, s, body[:cut])
		if err == nil {
			// Boundary truncation passes the size check; the last block then
			// fails its final-flag AAD on read.
			got := make([]byte, cut)
			_, err = r.ReadAt(got, 0)
			r.Close()
		}
		if err == nil || !errors.Is(err, vfs.ErrIntegrity) {
			t.Fatalf("cut %d: truncation not detected (err=%v)", cut, err)
		}
	}
}

func TestSealedBlockSpliceDetected(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 3*SealedBlockSize)
	rand.New(rand.NewSource(10)).Read(payload)
	body := sealToMem(t, s, payload)

	// Swap blocks 0 and 1: both authenticate under their original index, so
	// the index in nonce+AAD must reject them at the new positions.
	mut := append([]byte(nil), body...)
	copy(mut[0:sealedCipherBlock], body[sealedCipherBlock:2*sealedCipherBlock])
	copy(mut[sealedCipherBlock:2*sealedCipherBlock], body[0:sealedCipherBlock])
	r, err := openSealed(t, s, mut)
	if err == nil {
		got := make([]byte, SealedBlockSize)
		_, err = r.ReadAt(got, 0)
		r.Close()
	}
	if err == nil || !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("block reorder not detected (err=%v)", err)
	}
}

func TestTagChainDigestMatchesWriterAndReader(t *testing.T) {
	s, _ := newTestSealer(t)
	payload := make([]byte, 2*SealedBlockSize+55)
	rand.New(rand.NewSource(11)).Read(payload)

	fs := vfs.NewMem()
	f, _ := fs.Create("f")
	w := NewSealedWriter(f, s)
	w.Write(payload)
	if _, ok := w.FileDigest(); ok {
		t.Fatal("digest available before finalization")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wd, ok := w.FileDigest()
	if !ok {
		t.Fatal("no digest after Close")
	}

	body, _ := vfs.ReadFile(fs, "f")
	// Keyless digest over the ciphertext must match the writer's.
	cd, err := TagChainDigest(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wd, cd) {
		t.Fatal("TagChainDigest != writer digest")
	}
	// And the reader's (tag-scan and full-verify paths).
	r, err := openSealed(t, s, body)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rd, err := r.FileDigest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wd, rd) {
		t.Fatal("reader FileDigest != writer digest")
	}
	vd, err := r.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wd, vd) {
		t.Fatal("VerifyAll digest != writer digest")
	}
}

func TestChunkedSealedWriterMatchesSerial(t *testing.T) {
	dek, err := NewDEK()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 5*SealedBlockSize+1234)
	rand.New(rand.NewSource(12)).Read(payload)

	serialSealer, _ := NewSealer(dek, []byte("8bytepfx"), []byte("hdr"))
	fs1 := vfs.NewMem()
	f1, _ := fs1.Create("f")
	sw := NewSealedWriter(f1, serialSealer)
	sw.Write(payload)
	sw.Close()
	want, _ := vfs.ReadFile(fs1, "f")
	wantDigest, _ := sw.FileDigest()

	// The multi-goroutine chunked writer must produce byte-identical output
	// for every worker count and chunk size.
	for _, workers := range []int{1, 2, 4} {
		for _, chunk := range []int{SealedBlockSize, 2 * SealedBlockSize, 64 << 10} {
			sealer, _ := NewSealer(dek, []byte("8bytepfx"), []byte("hdr"))
			fs2 := vfs.NewMem()
			f2, _ := fs2.Create("f")
			cw := NewChunkedSealedWriter(f2, sealer, chunk, workers)
			// Uneven write sizes exercise buffering.
			for off := 0; off < len(payload); off += 3000 {
				end := off + 3000
				if end > len(payload) {
					end = len(payload)
				}
				if _, err := cw.Write(payload[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			if err := cw.Close(); err != nil {
				t.Fatal(err)
			}
			got, _ := vfs.ReadFile(fs2, "f")
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d chunk=%d: chunked output differs from serial", workers, chunk)
			}
			gd, ok := cw.FileDigest()
			if !ok || !bytes.Equal(gd, wantDigest) {
				t.Fatalf("workers=%d chunk=%d: chunked digest differs (ok=%v)", workers, chunk, ok)
			}
		}
	}
}

// FuzzSealedOpen feeds arbitrary bodies to the sealed reader: it must either
// reject them (typed as integrity errors for impossible layouts) or round
// genuine sealed data back — never panic, never return unauthenticated bytes
// as success.
func FuzzSealedOpen(f *testing.F) {
	dek := DEK{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	s, err := NewSealer(dek, []byte("fuzzpref"), []byte("hdr"))
	if err != nil {
		f.Fatal(err)
	}
	valid := s.SealBlock(nil, []byte("tail"), 0, true)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAA}, sealedCipherBlock+SealedTagSize))
	f.Fuzz(func(t *testing.T, body []byte) {
		fs := vfs.NewMem()
		if err := vfs.WriteFile(fs, "f", body); err != nil {
			t.Skip()
		}
		file, err := fs.Open("f")
		if err != nil {
			t.Skip()
		}
		defer file.Close()
		r, err := NewSealedReaderAt(file, s, 0)
		if err != nil {
			if !errors.Is(err, vfs.ErrIntegrity) {
				t.Fatalf("open rejected with non-integrity error: %v", err)
			}
			return
		}
		size, _ := r.Size()
		buf := make([]byte, size)
		if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
			if !errors.Is(err, vfs.ErrIntegrity) {
				t.Fatalf("read failed with non-integrity error: %v", err)
			}
		}
		if _, err := r.FileDigest(); err != nil && err != io.EOF {
			t.Fatalf("digest scan: %v", err)
		}
	})
}

// countingFile counts the device reads made through it.
type countingFile struct {
	vfs.RandomAccessFile
	reads int
}

func (c *countingFile) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.RandomAccessFile.ReadAt(p, off)
}

// TestFileDigestReadsInWindows checks that FileDigest hashes the same tags
// as TagChainDigest while reading the body in digestWindow-sized reads,
// not one read per sealed block.
func TestFileDigestReadsInWindows(t *testing.T) {
	s, _ := newTestSealer(t)
	rng := rand.New(rand.NewSource(13))
	for _, size := range []int{0, 100, SealedBlockSize, 64 * SealedBlockSize, 64*SealedBlockSize + 1, 2<<20 + 123} {
		payload := make([]byte, size)
		rng.Read(payload)
		body := sealToMem(t, s, payload)
		want, err := TagChainDigest(body)
		if err != nil {
			t.Fatal(err)
		}
		fs := vfs.NewMem()
		if err := vfs.WriteFile(fs, "f", body); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		cf := &countingFile{RandomAccessFile: f}
		r, err := NewSealedReaderAt(cf, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.FileDigest()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("plaintext %d B: FileDigest != TagChainDigest", size)
		}
		if wantReads := (len(body) + digestWindow - 1) / digestWindow; cf.reads != wantReads {
			t.Fatalf("plaintext %d B (body %d B): %d device reads, want %d", size, len(body), cf.reads, wantReads)
		}
		r.Close()
	}
}

// discardFile is a WritableFile that drops its data.
type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// TestChunkedWriterAllocatesChunkOnce checks that filling a chunk through
// small writes allocates no more than one write of the whole chunk: the
// chunk buffer is allocated once at full size, not regrown by append.
func TestChunkedWriterAllocatesChunkOnce(t *testing.T) {
	s, _ := newTestSealer(t)
	const chunk = 64 << 10
	data := make([]byte, chunk)
	perChunk := func(piece int) float64 {
		w := NewChunkedSealedWriter(discardFile{}, s, chunk, 1)
		return testing.AllocsPerRun(20, func() {
			for n := 0; n < chunk; n += piece {
				if _, err := w.Write(data[n : n+piece]); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	whole, small := perChunk(chunk), perChunk(4<<10)
	if small > whole {
		t.Fatalf("4 KiB writes: %.0f allocations per chunk, one %d B write: %.0f", small, chunk, whole)
	}
}
