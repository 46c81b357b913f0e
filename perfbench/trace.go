package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanKind names the layer boundary a span was recorded at. Every span is
// recorded by this package's wrappers around seams the engine already
// exposes; the engine itself is not instrumented.
type spanKind uint8

const (
	spPut         spanKind = iota // one lsm.DB Put issued by a client goroutine
	spGet                         // one lsm.DB Get issued by a client goroutine
	spEngineWrite                 // server.Engine.Write: one folded RESP write batch
	spEngineGet                   // server.Engine.Get: one RESP GET
	spWrapCreate                  // lsm.FileWrapper.WrapCreate (core: DEK + header)
	spWrapOpen                    // lsm.FileWrapper.WrapOpen (core: header + DEK resolve)
	spCryptRead                   // ReadAt on a file the FileWrapper returned (GCM open)
	spCryptWrite                  // Write on a file the FileWrapper returned (encrypt/seal)
	spCryptSync                   // Sync/Close on a file the FileWrapper returned
	spDevRead                     // device ReadAt (modelled read cost)
	spDevSync                     // device Sync/Close (modelled sync cost)
	spKDSCreate                   // kds.Service.CreateDEK
	spKDSFetch                    // kds.Service.FetchDEK
	spRPCRead                     // dstore.Client ReadAt
	spRPCWrite                    // dstore.Client file Write (buffered; ships full packets)
	spRPCSync                     // dstore.Client file Sync/Close
	spRPCMeta                     // dstore.Client Create/Open/Remove/Rename/List/Stat/SyncDir
	spCompact                     // lsm.Compactor.Compact (the compactsvc Orchestrator)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op.put", "op.get", "server.write", "server.get", "core.wrap_create", "core.wrap_open",
	"crypt.read", "crypt.write", "crypt.sync", "vfs.read", "vfs.sync", "kds.create", "kds.fetch",
	"dstore.read", "dstore.write", "dstore.sync", "dstore.meta", "compactsvc.compact",
}

// maxSpans caps the spans one traced run keeps in memory (32 B each).
const maxSpans = 4 << 20

type span struct {
	start, end int64   // ns since the tracer started
	g          uintptr // the goroutine that opened it
	parent     int32   // index of the enclosing span, -1 for a root
	bytes      int32
	kind       spanKind
}

// tracer records spans in memory. A span's parent is the innermost span
// still open on the same goroutine; a span opened with none open is a root.
// Roots other than client operations are background work (flush,
// compaction, worker goroutines), so a group-commit leader's WAL write
// lands under the leader's own Put. A nil *tracer records nothing.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	open    map[uintptr][]int32 // goroutine -> stack of open span indexes
	dropped int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), open: make(map[uintptr][]int32)}
}

func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	g := getg()
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	st := t.open[g]
	parent := int32(-1)
	if len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: now, g: g, parent: parent, kind: k})
	t.open[g] = append(st, id)
	return id
}

func (t *tracer) end(id int32, bytes int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	t.spans[id].bytes = int32(bytes)
	g := t.spans[id].g
	st := t.open[g]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			t.open[g] = append(st[:i], st[i+1:]...)
			break
		}
	}
}

// rootClass groups spans by the root they descend from.
type rootClass uint8

const (
	classPut rootClass = iota // client Put or server write batch
	classGet                  // client Get or server GET
	classBG                   // background work
	numClasses
)

func classOf(k spanKind) rootClass {
	switch k {
	case spPut, spEngineWrite:
		return classPut
	case spGet, spEngineGet:
		return classGet
	}
	return classBG
}

// layerAgg sums the spans of one kind under one root class.
type layerAgg struct {
	n, selfNS, durNS, bytes int64
}

// traceSummary is the self-time breakdown of a traced run: a span's self
// time is its duration minus the durations of its children. Children on
// one goroutine never overlap, so the sum is the part of the interval they
// cover.
type traceSummary struct {
	agg     [numClasses][numSpanKinds]layerAgg
	total   [numSpanKinds]layerAgg // every class
	spans   int
	dropped int64
}

func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s traceSummary
	s.spans, s.dropped = len(t.spans), t.dropped
	child := make([]int64, len(t.spans))
	class := make([]rootClass, len(t.spans))
	for i, sp := range t.spans {
		// Parents precede children, so the root's class is already known.
		if sp.parent < 0 {
			class[i] = classOf(sp.kind)
		} else {
			class[i] = class[sp.parent]
			if sp.end > 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
	}
	for i, sp := range t.spans {
		if sp.end == 0 {
			continue // still open when the phase ended
		}
		dur := sp.end - sp.start
		for _, a := range []*layerAgg{&s.agg[class[i]][sp.kind], &s.total[sp.kind]} {
			a.n++
			a.durNS += dur
			a.selfNS += dur - child[i]
			a.bytes += int64(sp.bytes)
		}
	}
	return s
}

// writeFile stores every span as one tab-separated line (index, parent,
// layer, start ns, end ns, bytes), gzip-compressed.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tlayer\tstart_ns\tend_ns\tbytes")
	t.mu.Lock()
	for i, sp := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\n", i, sp.parent, spanNames[sp.kind], sp.start, sp.end, sp.bytes)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
