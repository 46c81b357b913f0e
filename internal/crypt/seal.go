package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"

	"shield/internal/vfs"
)

// Sealed file format (format v2).
//
// CTR mode (format v1) gives confidentiality only: a storage adversary can
// flip ciphertext bits and the engine decrypts them to attacker-chosen
// plaintext deltas. Format v2 replaces the CTR body with per-block AES-GCM:
//
//	body = block_0 ... block_{n-1} final_block
//
// Every non-final block seals exactly SealedBlockSize plaintext bytes into
// SealedBlockSize+tag bytes of ciphertext. The file always ends with one
// final block holding the 0..SealedBlockSize-1 byte tail (a full-multiple
// file ends with an empty final block: just its 16-byte tag). The nonce is
// an 8-byte per-file random prefix followed by the 32-bit block index; the
// AAD binds the plaintext file header plus the block index and a final-block
// flag. Consequences:
//
//   - any ciphertext flip fails the block's tag → vfs.ErrIntegrity;
//   - blocks cannot be reordered or spliced across files (index in the
//     nonce+AAD, file identity in the header-derived AAD);
//   - truncation is detected: cutting mid-block breaks the size invariant
//     (body % 4112 must be in [16, 4111]), and cutting at a block boundary
//     leaves a non-final block in last position, whose AAD then fails;
//   - the chain of block tags hashes into a 32-byte file digest that the
//     manifest records, so replacing a whole file with an older validly
//     sealed version of itself is caught against the (trusted) manifest.
const (
	// SealedBlockSize is the plaintext granularity of format v2.
	SealedBlockSize = 4096

	// SealedTagSize is the per-block GCM tag.
	SealedTagSize = 16

	// sealedCipherBlock is the on-disk size of one full sealed block.
	sealedCipherBlock = SealedBlockSize + SealedTagSize

	// SealedNoncePrefixLen is the per-file random nonce prefix; the
	// remaining 4 bytes of the 12-byte GCM nonce are the block index.
	SealedNoncePrefixLen = 8
)

// errSealTruncated reports a sealed body whose size cannot have been
// produced by a complete writer (mid-block truncation or a missing final
// block's tag).
var errSealTruncated = fmt.Errorf("crypt: sealed body truncated: %w", vfs.ErrIntegrity)

// Sealer seals and opens fixed-size blocks under one DEK and per-file nonce
// prefix. It is stateless after construction and safe for concurrent use,
// which is what lets ChunkedWriter seal chunks on multiple goroutines while
// keeping the output byte-identical to the serial path.
type Sealer struct {
	aead   cipher.AEAD
	prefix [SealedNoncePrefixLen]byte
	aad    []byte // file-binding AAD prefix (the plaintext header)
}

// NewSealer builds a Sealer for one file. noncePrefix must hold at least
// SealedNoncePrefixLen bytes unique per (key, file); aad is the file's
// plaintext header, bound into every block so headers cannot be swapped
// between files.
func NewSealer(key DEK, noncePrefix []byte, aad []byte) (*Sealer, error) {
	if len(noncePrefix) < SealedNoncePrefixLen {
		return nil, fmt.Errorf("crypt: nonce prefix too short: %d", len(noncePrefix))
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	s := &Sealer{aead: aead, aad: append([]byte(nil), aad...)}
	copy(s.prefix[:], noncePrefix)
	return s, nil
}

// blockNonce derives the 12-byte GCM nonce for block idx.
func (s *Sealer) blockNonce(idx uint32) [12]byte {
	var n [12]byte
	copy(n[:SealedNoncePrefixLen], s.prefix[:])
	binary.BigEndian.PutUint32(n[SealedNoncePrefixLen:], idx)
	return n
}

// blockAAD derives the AAD for block idx: header ‖ index ‖ final-flag.
func (s *Sealer) blockAAD(idx uint32, final bool) []byte {
	aad := make([]byte, 0, len(s.aad)+5)
	aad = append(aad, s.aad...)
	var tail [5]byte
	binary.BigEndian.PutUint32(tail[:4], idx)
	if final {
		tail[4] = 1
	}
	return append(aad, tail[:]...)
}

// SealBlock appends block idx's ciphertext (plaintext + tag) to dst.
// Non-final blocks must be exactly SealedBlockSize long; the final block is
// 0..SealedBlockSize-1 bytes.
func (s *Sealer) SealBlock(dst, plain []byte, idx uint32, final bool) []byte {
	nonce := s.blockNonce(idx)
	return s.aead.Seal(dst, nonce[:], plain, s.blockAAD(idx, final))
}

// OpenBlock authenticates and decrypts one sealed block, appending the
// plaintext to dst. A failed tag (or wrong idx/final position) returns an
// error wrapping vfs.ErrIntegrity.
func (s *Sealer) OpenBlock(dst, sealed []byte, idx uint32, final bool) ([]byte, error) {
	if len(sealed) < SealedTagSize {
		return dst, fmt.Errorf("crypt: sealed block %d short (%d bytes): %w", idx, len(sealed), vfs.ErrIntegrity)
	}
	nonce := s.blockNonce(idx)
	out, err := s.aead.Open(dst, nonce[:], sealed, s.blockAAD(idx, final))
	if err != nil {
		return dst, fmt.Errorf("crypt: sealed block %d failed authentication: %w", idx, vfs.ErrIntegrity)
	}
	return out, nil
}

// sealedBodyLayout validates a sealed body size and returns the number of
// full (non-final) blocks and the plaintext size.
func sealedBodyLayout(bodyLen int64) (fullBlocks int64, plainSize int64, err error) {
	if bodyLen < SealedTagSize {
		return 0, 0, errSealTruncated
	}
	rem := bodyLen % sealedCipherBlock
	if rem < SealedTagSize {
		// rem == 0 means the file ends on a full-block boundary, i.e. the
		// mandatory final block is missing — boundary truncation.
		return 0, 0, errSealTruncated
	}
	fullBlocks = bodyLen / sealedCipherBlock
	plainSize = fullBlocks*SealedBlockSize + (rem - SealedTagSize)
	return fullBlocks, plainSize, nil
}

// SealedPlainSize returns the plaintext size of a sealed body of bodyLen
// ciphertext bytes, or an error wrapping vfs.ErrIntegrity if no complete
// writer could have produced that length.
func SealedPlainSize(bodyLen int64) (int64, error) {
	_, plain, err := sealedBodyLayout(bodyLen)
	return plain, err
}

// TagChainDigest hashes the per-block GCM tags of a sealed body, in block
// order, into the file digest the manifest anchors. It needs only the
// ciphertext — tags sit at fixed offsets — so a storage node can compute it
// without holding any key; the digest is only *meaningful* against the
// manifest because each tag is unforgeable without the DEK.
func TagChainDigest(body []byte) ([]byte, error) {
	full, _, err := sealedBodyLayout(int64(len(body)))
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for i := int64(0); i < full; i++ {
		blk := body[i*sealedCipherBlock : (i+1)*sealedCipherBlock]
		h.Write(blk[SealedBlockSize:])
	}
	h.Write(body[len(body)-SealedTagSize:])
	return h.Sum(nil), nil
}

// SealedWriter writes a format-v2 body to an append-only file: full blocks
// are sealed as they fill, and Sync (or Close) finalizes the file with the
// mandatory final block. After finalization the writer accepts no more
// data — v2 is for write-once files (SSTs, CURRENT); append-many streams
// (WAL, MANIFEST) stay on format v1.
type SealedWriter struct {
	f      vfs.WritableFile
	s      *Sealer
	buf    []byte // pending plaintext, < SealedBlockSize after Write returns
	idx    uint32
	digest hash.Hash
	final  []byte // tag-chain digest, set at finalization
	err    error
}

// NewSealedWriter wraps f (positioned just past the plaintext header) with
// sealed encryption.
func NewSealedWriter(f vfs.WritableFile, s *Sealer) *SealedWriter {
	return &SealedWriter{f: f, s: s, digest: sha256.New()}
}

func (w *SealedWriter) sealAndWrite(plain []byte, final bool) error {
	ct := w.s.SealBlock(nil, plain, w.idx, final)
	w.digest.Write(ct[len(plain):])
	w.idx++
	return vfs.WriteFull(w.f, ct)
}

// Write implements io.Writer; full blocks are sealed and written eagerly.
func (w *SealedWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.final != nil {
		return 0, fmt.Errorf("crypt: write after sealed file was finalized")
	}
	w.buf = append(w.buf, p...)
	for len(w.buf) >= SealedBlockSize {
		if err := w.sealAndWrite(w.buf[:SealedBlockSize], false); err != nil {
			w.err = err
			// p was absorbed into the buffer before the failure; report it
			// consumed so the caller's offsets match (io.Writer contract).
			return len(p), err
		}
		w.buf = w.buf[SealedBlockSize:]
	}
	return len(p), nil
}

// finalize seals the tail (possibly empty) as the final block.
func (w *SealedWriter) finalize() error {
	if w.err != nil {
		return w.err
	}
	if w.final != nil {
		return nil
	}
	if err := w.sealAndWrite(w.buf, true); err != nil {
		w.err = err
		return err
	}
	w.buf = nil
	w.final = w.digest.Sum(nil)
	return nil
}

// Sync finalizes the sealed body and syncs the file. No writes may follow.
func (w *SealedWriter) Sync() error {
	if err := w.finalize(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close finalizes (if Sync has not already) and closes the file.
func (w *SealedWriter) Close() error {
	ferr := w.finalize()
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// FileDigest returns the tag-chain digest; ok is false until finalization.
func (w *SealedWriter) FileDigest() ([]byte, bool) {
	if w.final == nil {
		return nil, false
	}
	return append([]byte(nil), w.final...), true
}

// SealedReaderAt reads a format-v2 body with per-block verification: every
// ReadAt authenticates the covering blocks before returning plaintext, so a
// tampered block surfaces as an error wrapping vfs.ErrIntegrity — never as
// wrong bytes. Offsets are body-relative plaintext offsets.
type SealedReaderAt struct {
	f         vfs.RandomAccessFile
	s         *Sealer
	headerLen int64
	bodyLen   int64
	plainSize int64
	full      int64 // number of non-final blocks
}

// NewSealedReaderAt wraps f, whose sealed body starts at headerLen. The
// body size is validated immediately (truncation fails here).
func NewSealedReaderAt(f vfs.RandomAccessFile, s *Sealer, headerLen int64) (*SealedReaderAt, error) {
	sz, err := f.Size()
	if err != nil {
		return nil, err
	}
	bodyLen := sz - headerLen
	full, plain, err := sealedBodyLayout(bodyLen)
	if err != nil {
		return nil, err
	}
	return &SealedReaderAt{f: f, s: s, headerLen: headerLen, bodyLen: bodyLen, plainSize: plain, full: full}, nil
}

// blockExtent returns the ciphertext offset and length of block idx.
func (r *SealedReaderAt) blockExtent(idx int64) (off, n int64) {
	off = idx * sealedCipherBlock
	if idx < r.full {
		return off, sealedCipherBlock
	}
	return off, r.bodyLen - off
}

// ReadAt implements io.ReaderAt over the verified plaintext body.
func (r *SealedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("crypt: negative offset %d", off)
	}
	if off >= r.plainSize {
		return 0, io.EOF
	}
	n := 0
	for len(p) > 0 && off < r.plainSize {
		idx := off / SealedBlockSize
		coff, clen := r.blockExtent(idx)
		ct := make([]byte, clen)
		if _, err := r.f.ReadAt(ct, r.headerLen+coff); err != nil && err != io.EOF {
			return n, err
		}
		plain, err := r.s.OpenBlock(nil, ct, uint32(idx), idx == r.full)
		if err != nil {
			return n, err
		}
		c := copy(p, plain[off-idx*SealedBlockSize:])
		n += c
		p = p[c:]
		off += int64(c)
	}
	if len(p) > 0 {
		return n, io.EOF
	}
	return n, nil
}

// Size returns the plaintext body length.
func (r *SealedReaderAt) Size() (int64, error) { return r.plainSize, nil }

// Close closes the underlying file.
func (r *SealedReaderAt) Close() error { return r.f.Close() }

// digestWindow bounds one device read of FileDigest: 64 whole sealed
// blocks (about 257 KiB), so no block straddles two reads.
const digestWindow = 64 * sealedCipherBlock

// FileDigest recomputes the tag-chain digest from the stored ciphertext,
// reading the body in windows of digestWindow bytes and hashing the tags
// from memory: one device read per window, not one per block. It does not
// authenticate blocks — callers compare the result against the
// manifest-recorded digest (whose tags only the DEK holder could forge).
func (r *SealedReaderAt) FileDigest() ([]byte, error) {
	h := sha256.New()
	buf := make([]byte, min(digestWindow, r.bodyLen))
	for off := int64(0); off < r.bodyLen; {
		win := buf[:min(int64(len(buf)), r.bodyLen-off)]
		if _, err := r.f.ReadAt(win, r.headerLen+off); err != nil && err != io.EOF {
			return nil, err
		}
		for end := sealedCipherBlock; end <= len(win); end += sealedCipherBlock {
			h.Write(win[end-SealedTagSize : end])
		}
		off += int64(len(win))
		if off == r.bodyLen {
			// The final block is always shorter than a full one, so it is
			// the last window's tail.
			h.Write(win[len(win)-SealedTagSize:])
		}
	}
	return h.Sum(nil), nil
}

// VerifyAll authenticates every block of the body (the scrub's full pass)
// and returns the tag-chain digest.
func (r *SealedReaderAt) VerifyAll() ([]byte, error) {
	h := sha256.New()
	for idx := int64(0); idx <= r.full; idx++ {
		coff, clen := r.blockExtent(idx)
		ct := make([]byte, clen)
		if _, err := r.f.ReadAt(ct, r.headerLen+coff); err != nil && err != io.EOF {
			return nil, err
		}
		if _, err := r.s.OpenBlock(nil, ct, uint32(idx), idx == r.full); err != nil {
			return nil, err
		}
		h.Write(ct[clen-SealedTagSize:])
	}
	return h.Sum(nil), nil
}
