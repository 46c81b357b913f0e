// Package seccache implements SHIELD's secure local DEK cache
// (Section 5.2): an on-disk store of previously used DEKs, sealed with a
// key derived from a server passkey that is never persisted.
//
// The cache removes the need to re-request every DEK from the KDS on
// database restart, and can be shared by multiple LSM-KVS instances on the
// same server (as in ZippyDB-style deployments) provided they hold the
// passkey. During DEK rotation the new DEK is inserted and the DEK of the
// compacted-away file is deleted, so only keys for live files remain
// recoverable.
//
// On-disk layout:
//
//	magic(4) version(4) salt(16) iv(16) len(4) ciphertext hmac(32)
//
// The payload (a JSON map of KeyID -> hex DEK) is AES-128-CTR encrypted
// under a PBKDF2-derived key; an HMAC-SHA256 tag over header+ciphertext
// provides tamper evidence.
package seccache

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"strconv"
	"strings"
	"sync"

	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/vfs"
)

const (
	magic      = 0x53434348 // "SCCH"
	version    = 1
	saltSize   = 16
	hmacSize   = 32
	pbkdf2Iter = 4096
)

// Errors returned by the cache.
var (
	ErrBadPasskey = errors.New("seccache: passkey mismatch or corrupted cache")
	ErrNotCached  = errors.New("seccache: DEK not in cache")
)

// errStructural marks damage that is provably file corruption (truncation,
// bad magic, inconsistent lengths) rather than a possible passkey mismatch.
// The cache is only an optimization — every DEK is recoverable from the KDS —
// so structural damage cold-starts the cache instead of failing the open.
// An HMAC mismatch stays ErrBadPasskey: it is indistinguishable from a wrong
// passkey, and failing closed is the right call for a security cache.
var errStructural = errors.New("seccache: structurally corrupt cache file")

// Cache is a secure, persistent DEK cache. It is safe for concurrent use.
//
// Locking: mu guards the entry map and counters and is never held across
// I/O — Get/Put/Has on other goroutines must not stall behind a disk (or,
// disaggregated, a network) write. Persistence encodes a sealed snapshot
// under mu, then writes it under saveMu; snapSeq orders snapshots by the
// state they observed so a slow older write can never clobber a newer one.
type Cache struct {
	fs      vfs.FS
	path    string
	aesKey  crypt.DEK
	hmacKey []byte
	salt    [saltSize]byte
	mu      sync.Mutex
	entries map[kds.KeyID]crypt.DEK
	// epochs holds per-store freshness-epoch floors (rollback detection),
	// sealed into the same tamper-evident payload as the DEKs: an attacker
	// who can roll the data directory back cannot roll the floor back
	// without the passkey.
	epochs    map[string]uint64
	snapSeq   uint64
	hits      int64
	misses    int64
	saveErrs  int64
	dropped   int64 // saves skipped on ErrNoSpace; a subset of saveErrs
	autosave  bool
	recovered bool

	saveMu   sync.Mutex // serializes snapshot writes; never nested with mu
	savedSeq uint64     // guarded by saveMu: newest snapshot on disk
}

// Open loads (or creates) the cache at path, unsealing it with passkey.
// Opening an existing cache with the wrong passkey fails with ErrBadPasskey.
func Open(fs vfs.FS, path string, passkey []byte) (*Cache, error) {
	c := &Cache{
		fs:       fs,
		path:     path,
		entries:  make(map[kds.KeyID]crypt.DEK),
		epochs:   make(map[string]uint64),
		autosave: true,
	}
	// A leftover .tmp means a save crashed between WriteFile and Rename; the
	// live cache (if any) is intact, the partial file is garbage.
	if err := fs.Remove(path + ".tmp"); err != nil && !errors.Is(err, vfs.ErrNotFound) {
		return nil, err
	}
	data, err := vfs.ReadFile(fs, path)
	switch {
	case errors.Is(err, vfs.ErrNotFound):
		if err := c.coldStart(passkey); err != nil {
			return nil, err
		}
		return c, nil
	case err != nil:
		return nil, err
	}
	if err := c.load(data, passkey); err != nil {
		if errors.Is(err, errStructural) {
			// Treat a structurally corrupt cache as cold: every DEK it held
			// is re-fetchable from the KDS.
			if err := c.coldStart(passkey); err != nil {
				return nil, err
			}
			c.recovered = true
			return c, nil
		}
		return nil, err
	}
	return c, nil
}

// coldStart resets to an empty cache with a fresh salt, so derived keys are
// stable from here on.
func (c *Cache) coldStart(passkey []byte) error {
	c.entries = make(map[kds.KeyID]crypt.DEK)
	c.epochs = make(map[string]uint64)
	iv, err := crypt.NewIV()
	if err != nil {
		return err
	}
	copy(c.salt[:], iv[:])
	c.deriveKeys(passkey)
	return nil
}

// Recovered reports whether Open found a structurally corrupt cache file and
// cold-started instead of loading it (DEKs will re-populate from the KDS).
func (c *Cache) Recovered() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovered
}

func (c *Cache) deriveKeys(passkey []byte) {
	dk := crypt.PBKDF2SHA256(passkey, c.salt[:], pbkdf2Iter, crypt.KeySize+hmacSize)
	defer crypt.Zeroize(dk)
	copy(c.aesKey[:], dk[:crypt.KeySize])
	// Copy rather than alias: retaining a sub-slice would keep the whole
	// derived buffer (AES half included) alive and un-wipeable.
	c.hmacKey = append(c.hmacKey[:0], dk[crypt.KeySize:]...)
}

func (c *Cache) load(data []byte, passkey []byte) error {
	const hdrLen = 4 + 4 + saltSize + crypt.IVSize + 4
	if len(data) < hdrLen+hmacSize {
		return fmt.Errorf("%w: truncated", errStructural)
	}
	if binary.LittleEndian.Uint32(data[0:4]) != magic {
		return fmt.Errorf("%w: bad magic", errStructural)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return fmt.Errorf("seccache: unsupported version %d", v)
	}
	copy(c.salt[:], data[8:8+saltSize])
	c.deriveKeys(passkey)

	var iv [crypt.IVSize]byte
	copy(iv[:], data[8+saltSize:8+saltSize+crypt.IVSize])
	n := binary.LittleEndian.Uint32(data[8+saltSize+crypt.IVSize : hdrLen])
	if int(n) != len(data)-hdrLen-hmacSize {
		return fmt.Errorf("%w: length mismatch", errStructural)
	}
	body := data[hdrLen : hdrLen+int(n)]
	tag := data[hdrLen+int(n):]
	if !crypt.VerifyHMACSHA256(c.hmacKey, data[:hdrLen+int(n)], tag) {
		return ErrBadPasskey
	}
	plain := make([]byte, len(body))
	if err := crypt.EncryptAt(c.aesKey, iv, plain, body, 0); err != nil {
		return err
	}
	// The decrypted payload holds every DEK in hex; wipe it once decoded.
	defer crypt.Zeroize(plain)
	var raw map[string]string
	if err := json.Unmarshal(plain, &raw); err != nil {
		return fmt.Errorf("%w: payload decode: %v", ErrBadPasskey, err)
	}
	for id, val := range raw {
		// Freshness-epoch floors share the sealed payload with the DEKs
		// under a reserved prefix no KDS key ID uses.
		if store, ok := strings.CutPrefix(id, epochPrefix); ok {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("seccache: bad epoch encoding for %s: %w", store, err)
			}
			c.epochs[store] = n
			continue
		}
		kb, err := hex.DecodeString(val)
		if err != nil {
			return fmt.Errorf("seccache: bad key encoding for %s: %w", id, err)
		}
		dek, err := crypt.DEKFromBytes(kb)
		crypt.Zeroize(kb)
		if err != nil {
			return err
		}
		c.entries[kds.KeyID(id)] = dek
	}
	return nil
}

// epochPrefix namespaces freshness-epoch entries inside the sealed payload.
// KDS key IDs never start with "!", so the two spaces cannot collide.
const epochPrefix = "!epoch:"

// EpochFloor returns the sealed freshness-epoch floor for the named store,
// and whether one has ever been sealed.
func (c *Cache) EpochFloor(store string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.epochs[store]
	return e, ok
}

// SealEpoch ratchets the named store's epoch floor up to epoch and persists
// the cache. Lower values are ignored — the floor never moves backwards,
// which is the whole point.
func (c *Cache) SealEpoch(store string, epoch uint64) error {
	c.mu.Lock()
	if cur, ok := c.epochs[store]; ok && cur >= epoch {
		c.mu.Unlock()
		return nil
	}
	c.epochs[store] = epoch
	c.mu.Unlock()
	return c.save()
}

// SetAutosave controls whether mutations persist immediately (default true).
// Benchmarks that mutate at high rate can disable it and call Save once.
func (c *Cache) SetAutosave(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.autosave = on
}

// Get returns the cached DEK for id, or ErrNotCached.
func (c *Cache) Get(id kds.KeyID) (crypt.DEK, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dek, ok := c.entries[id]
	if !ok {
		c.misses++
		return crypt.DEK{}, fmt.Errorf("%w: %s", ErrNotCached, id)
	}
	c.hits++
	return dek, nil
}

// Put stores a DEK and persists the cache (unless autosave is off).
func (c *Cache) Put(id kds.KeyID, dek crypt.DEK) error {
	c.mu.Lock()
	c.entries[id] = dek
	autosave := c.autosave
	c.mu.Unlock()
	if autosave {
		return c.save()
	}
	return nil
}

// Has reports whether id is cached, without touching the hit/miss counters
// (used to decide whether degraded KDS-less operation is possible).
func (c *Cache) Has(id kds.KeyID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	return ok
}

// Delete removes a DEK — called when its file is deleted after compaction,
// ensuring only current keys remain accessible.
func (c *Cache) Delete(id kds.KeyID) error {
	c.mu.Lock()
	if _, ok := c.entries[id]; !ok {
		c.mu.Unlock()
		return nil
	}
	delete(c.entries, id)
	autosave := c.autosave
	c.mu.Unlock()
	if autosave {
		return c.save()
	}
	return nil
}

// Len reports the number of cached DEKs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats reports hit/miss counters.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// SaveErrors reports how many persistence attempts have failed — the cache
// keeps serving from memory across save failures (storage may itself be
// degraded), and this counter is how operators notice.
func (c *Cache) SaveErrors() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveErrs
}

// SavesDropped reports how many of those failed saves were skipped because
// the cache's storage was full (vfs.ErrNoSpace) rather than returned.
func (c *Cache) SavesDropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Save persists the cache immediately.
func (c *Cache) Save() error {
	return c.save()
}

// save encodes a sealed snapshot of the current state under mu (CPU only),
// releases it, and hands the bytes to writeSnapshot. Concurrent mutators
// therefore never queue behind storage latency — the failure mode the PR 3
// degraded-mode work measured when the cache directory is slow or remote.
func (c *Cache) save() error {
	c.mu.Lock()
	c.snapSeq++
	seq := c.snapSeq
	out, err := c.encodeLocked()
	c.mu.Unlock()
	if err == nil {
		err = c.writeSnapshot(seq, out)
	}
	if err != nil {
		// A full cache disk must not fail the write path: the cache is an
		// optimization (every DEK is re-fetchable from the KDS) and the
		// entry is already live in memory. Count the drop and keep
		// serving; a later save retries once mutations continue.
		dropped := errors.Is(err, vfs.ErrNoSpace)
		c.mu.Lock()
		c.saveErrs++
		if dropped {
			c.dropped++
		}
		c.mu.Unlock()
		if dropped {
			return nil
		}
	}
	return err
}

// encodeLocked serializes and seals the entry map. Caller holds mu.
func (c *Cache) encodeLocked() ([]byte, error) {
	raw := make(map[string]string, len(c.entries)+len(c.epochs))
	for id, dek := range c.entries {
		raw[string(id)] = hex.EncodeToString(dek[:])
	}
	for store, e := range c.epochs {
		raw[epochPrefix+store] = strconv.FormatUint(e, 10)
	}
	plain, err := json.Marshal(raw)
	if err != nil {
		return nil, fmt.Errorf("seccache: encode: %w", err)
	}
	// The marshaled payload holds every DEK in hex; wipe it once encrypted.
	defer crypt.Zeroize(plain)
	iv, err := crypt.NewIV()
	if err != nil {
		return nil, err
	}
	body := make([]byte, len(plain))
	if err := crypt.EncryptAt(c.aesKey, iv, body, plain, 0); err != nil {
		return nil, err
	}

	const hdrLen = 4 + 4 + saltSize + crypt.IVSize + 4
	out := make([]byte, hdrLen, hdrLen+len(body)+hmacSize)
	binary.LittleEndian.PutUint32(out[0:4], magic)
	binary.LittleEndian.PutUint32(out[4:8], version)
	copy(out[8:8+saltSize], c.salt[:])
	copy(out[8+saltSize:8+saltSize+crypt.IVSize], iv[:])
	binary.LittleEndian.PutUint32(out[8+saltSize+crypt.IVSize:hdrLen], uint32(len(body)))
	out = append(out, body...)
	out = append(out, crypt.HMACSHA256(c.hmacKey, out)...)
	return out, nil
}

// writeSnapshot persists one encoded snapshot: write-then-rename so a crash
// mid-save never corrupts the live cache, then sync the directory so the
// rename itself survives power loss. A snapshot whose seq is not newer than
// the last one written is dropped — seq is assigned under mu at encode
// time, so it orders snapshots by the state they observed, and a slow older
// writer cannot overwrite a newer cache file.
//
//shield:nolockio saveMu only orders snapshot writes; no read or mutate path takes it
func (c *Cache) writeSnapshot(seq uint64, out []byte) error {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	if seq <= c.savedSeq {
		return nil
	}
	tmp := c.path + ".tmp"
	if err := vfs.WriteFile(c.fs, tmp, out); err != nil {
		return err
	}
	if err := c.fs.Rename(tmp, c.path); err != nil {
		return err
	}
	if err := c.fs.SyncDir(path.Dir(c.path)); err != nil {
		return err
	}
	c.savedSeq = seq
	return nil
}
