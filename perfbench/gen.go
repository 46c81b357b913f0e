package main

import (
	"hash/fnv"
	"math/rand"

	"shield/internal/bench"
)

// Record shape shared by every workload: 16-byte keys and 256-byte values,
// both rendered by the internal/bench generators, so each value embeds its
// key index and can be checked against the generator.
const (
	keySize   = 16
	valueSize = 256
)

type opKind uint8

const (
	opPut opKind = iota
	opGet
)

// op is one generated operation.
type op struct {
	kind opKind
	key  uint64
}

// stream generates one client's operations for one workload. The same
// (workload, seed, client) always yields the same operations; the stream
// assumes each of its Puts completed before its next op.
type stream struct {
	w    *workload
	rng  *rand.Rand
	zipf *bench.Zipfian
	// written lists the keys this client has put (fill and ds-fill read
	// back only keys they know were written).
	written []uint64
}

func clientSeed(seed int64, w *workload, client int) int64 {
	h := fnv.New64a()
	h.Write([]byte(w.name)) //nolint:errcheck // fnv never errors
	return seed*1_000_003 + int64(h.Sum64()>>1) + int64(client)*7919
}

func newStream(w *workload, seed int64, client int) *stream {
	s := &stream{w: w, rng: rand.New(rand.NewSource(clientSeed(seed, w, client)))}
	if w.zipfKeys > 0 {
		s.zipf = bench.NewZipfian(w.zipfKeys, clientSeed(seed, w, client)+1)
	}
	return s
}

func (s *stream) next() op {
	w := s.w
	switch {
	case w.zipfKeys > 0: // serve: zipfian GET/SET mix over the preloaded keys
		k := opPut
		if s.rng.Float64() < w.getShare {
			k = opGet
		}
		return op{kind: k, key: s.zipf.ScrambledNext()}
	case w.preloadKeys > 0: // read: uniform Gets of preloaded keys
		if s.rng.Float64() < w.getShare {
			return op{kind: opGet, key: uint64(s.rng.Int63n(int64(w.preloadKeys)))}
		}
		// Puts add keys above the preloaded range, so no Get is answered
		// from the memtable: a faster run would otherwise turn more of its
		// Gets into memtable hits and run faster still.
		return op{kind: opPut, key: w.preloadKeys + uint64(s.rng.Int63n(int64(w.keySpace)))}
	default: // fill: uniform puts over the key space, a few read-backs
		if len(s.written) > 0 && s.rng.Float64() < w.getShare {
			return op{kind: opGet, key: s.written[s.rng.Intn(len(s.written))]}
		}
		k := uint64(s.rng.Int63n(int64(w.keySpace)))
		s.written = append(s.written, k)
		return op{kind: opPut, key: k}
	}
}

// records renders keys and values for a seed.
type records struct {
	kg *bench.KeyGen
	vg *bench.ValueGen
}

func newRecords(seed int64) records {
	return records{kg: bench.NewKeyGen(keySize), vg: bench.NewValueGen(valueSize, seed)}
}

func (r records) key(n uint64) []byte   { return r.kg.Key(n) }
func (r records) value(n uint64) []byte { return r.vg.Value(n) }

// fingerprint hashes the first n operations of every client of w under
// seed, keys and values rendered, so a change to any generator shows.
func fingerprint(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	rec := newRecords(seed)
	for c := 0; c < w.clients; c++ {
		s := newStream(w, seed, c)
		for i := 0; i < n; i++ {
			o := s.next()
			h.Write([]byte{byte(c), byte(o.kind)}) //nolint:errcheck
			h.Write(rec.key(o.key))                //nolint:errcheck
			if o.kind == opPut {
				h.Write(rec.value(o.key)) //nolint:errcheck
			}
		}
	}
	return h.Sum64()
}
