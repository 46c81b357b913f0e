package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shield/internal/compactsvc"
	"shield/internal/core"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

// counters is a snapshot of every counter a phase reads, taken before and
// after the timed loop.
type counters struct {
	eng        lsm.Metrics
	read, sync waitSnap
	writeBytes int64

	kdsWait                    waitSnap
	wrapper                    core.WrapperStats
	orch                       compactsvc.OrchestratorStats
	storage                    vfs.Snapshot
	sets, batches              int64
	cpu                        time.Duration
	allocBytes, gcCPU, procCPU float64
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func (s *stack) counters() counters {
	c := counters{
		eng:        s.engineMetrics(),
		read:       s.dev.read.snap(),
		sync:       s.dev.sync.snap(),
		writeBytes: s.dev.writeBytes.Load(),
		wrapper:    s.wrapperStats(),
	}
	for _, k := range []*kdsModel{s.kds, s.wkds} {
		if k == nil {
			continue
		}
		c.kdsWait = c.kdsWait.add(k.wait.snap())
	}
	if s.orch != nil {
		c.orch = s.orch.Stats()
		c.storage = s.storage.Stats()
	}
	if s.srv != nil {
		for _, sh := range s.srv.Stats() {
			c.sets += sh.Sets
			c.batches += sh.WriteBatches
		}
	}
	c.cpu = processCPU()
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	c.allocBytes = float64(samples[0].Value.Uint64())
	c.gcCPU = samples[1].Value.Float64()
	c.procCPU = samples[2].Value.Float64()
	return c
}

// heapSampler tracks the peak live Go heap during a timed phase, less the
// bytes the modelled device's files hold (the device lives in the same
// heap). The live heap is a figure of the last completed GC cycle, so the
// device's bytes are read at that same point: a sentinel object's
// finalizer runs once per cycle, just after it, takes both readings and
// arms a new sentinel for the next cycle.
type heapSampler struct {
	dev      *device
	stopped  atomic.Bool
	mu       sync.Mutex
	readings []float64 // bytes, one per GC cycle
}

// gcSentinel holds a pointer, so it is never batched into a tiny
// allocation, whose finalizer could wait on its neighbours.
type gcSentinel struct{ _ *byte }

func startHeapSampler(dev *device) *heapSampler {
	h := &heapSampler{dev: dev}
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		if !h.stopped.Load() {
			h.sample()
			h.arm()
		}
	})
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := float64(int64(s[0].Value.Uint64()) - h.dev.mem.TotalBytes(""))
	h.mu.Lock()
	h.readings = append(h.readings, v)
	h.mu.Unlock()
}

// finish stops the sentinels, takes one last reading after a cycle of its
// own, so a phase the collector never visited still has a figure, and
// returns the sustained peak in bytes.
func (h *heapSampler) finish() float64 {
	h.stopped.Store(true)
	runtime.GC()
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return sustainedPeak(h.readings)
}

// sustainWindow is how many consecutive GC cycles a heap level must hold
// through (in most of them) to count towards the peak.
const sustainWindow = 5

// sustainedPeak is the largest median of sustainWindow consecutive
// readings: the highest level the heap held in most cycles of some run of
// them. Flushes are left out this way. Each flush holds its memtable and
// builds an SST for a few cycles at most, and a reading taken during it
// also runs high by up to the SST's size, because vfs.MemFS reports its
// files' lengths and not the capacity that append has given them. Both
// shards of serve flush at about the same time, so a single reading there
// rose by up to 16 MiB, depending on whether a cycle happened to land in a
// flush.
func sustainedPeak(xs []float64) float64 {
	if len(xs) < sustainWindow {
		return median(xs)
	}
	var peak float64
	for i := sustainWindow; i <= len(xs); i++ {
		peak = max(peak, median(xs[i-sustainWindow:i]))
	}
	return peak
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase is one deployment measured for one timed loop.
type phase struct {
	setup         time.Duration
	loop          *loopResult
	before, after counters
	peakHeap      float64 // bytes
	spaceAmp      float64
	trace         *traceSummary
	post          time.Duration
}

// runPhase sets up w's deployment setups times (timing each), runs its
// timed loop for d on the last one, then, untimed, flushes, fully
// compacts, reads every written key back and measures space.
func runPhase(w *workload, shield bool, tr *tracer, seed int64, rec records, d time.Duration, setups int) (*phase, error) {
	p := &phase{}
	s, addr, setup, err := medianSetup(w, shield, tr, rec, setups)
	p.setup = setup
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()

	runtime.GC() // set-up garbage must not count as the phase's heap
	p.before = s.counters()
	clients := make([]client, w.clients)
	var conns []respClient
	for i := range clients {
		if !w.serve {
			clients[i] = dbClient{db: s.dbs[0], tr: tr}
			continue
		}
		rc, err := dialRESP(addr)
		if err != nil {
			return nil, err
		}
		conns = append(conns, rc)
		clients[i] = rc
	}
	heap := startHeapSampler(s.dev)
	p.loop = closedLoop(clients, w, seed, rec, d)
	for _, rc := range conns {
		rc.c.Close()
	}
	p.after = s.counters()
	p.peakHeap = heap.finish() // after the counters: its collection is not the phase's
	if tr != nil {
		sum := tr.summarize()
		p.trace = &sum
		if sum.dropped > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans past the %d cap were not recorded\n", w.name, sum.dropped, maxSpans)
		}
	}

	written := p.loop.written
	for n := uint64(0); n < w.preloadKeys; n++ {
		written.add(n)
	}
	post := time.Now()
	for _, db := range s.dbs {
		if err := db.CompactRange(); err != nil {
			return nil, fmt.Errorf("post-run compaction: %w", err)
		}
	}
	if live := int64(written.len()) * (keySize + valueSize); live > 0 {
		p.spaceAmp = float64(s.liveBytes()) / float64(live)
	}
	if err := verifyAll(s, rec, written); err != nil {
		p.loop.fail(err, true)
	}
	p.post = time.Since(post)
	return p, s.close()
}

// verifyAll reads back every written key from the shard that owns it.
func verifyAll(s *stack, rec records, written *keySet) error {
	per := make([]*keySet, len(s.dbs))
	for i := range per {
		per[i] = newKeySet(written.bound())
	}
	written.each(func(n uint64) { per[shardOf(rec.key(n), len(s.dbs))].add(n) })
	var errs []error
	for i, db := range s.dbs {
		errs = append(errs, readBack(db, rec, per[i]))
	}
	return errors.Join(errs...)
}

// Calibration: before any deployment exists, a probe times
// calibrationWaits of each modelled cost through the same wait the models
// use. The median of each must lie in [nominal, nominal x bound]; the
// median, because one descheduling of this VM's vCPU would move a mean by
// more than the bound. time.Sleep's ~1 ms floor breaks the device bounds
// more than tenfold, and the default 50 µs timer slack breaks the read
// bound. The waits of every timed phase are checked again against the same
// upper bounds (see problems), by their median: their means also hold the
// time a woken thread waits for a CPU the load keeps busy, so those are
// reported (vfs.read_wait_us, vfs.sync_wait_us) but not checked.
const (
	devCalibBound    = 2.0
	kdsCalibBound    = 1.2
	calibrationWaits = 100
)

// timedWait is one modelled cost's waits over a phase's timed loop.
type timedWait struct {
	name  string
	snap  waitSnap
	bound float64
}

func timedWaits(p *phase) []timedWait {
	return []timedWait{
		{"device read", p.after.read.sub(p.before.read), devCalibBound},
		{"device sync", p.after.sync.sub(p.before.sync), devCalibBound},
		{"kds call", p.after.kdsWait.sub(p.before.kdsWait), kdsCalibBound},
	}
}

func calibrate() []string {
	var bad []string
	for _, c := range []struct {
		name    string
		nominal time.Duration
		n       int
		bound   float64
	}{
		{"device read", devReadCost, calibrationWaits, devCalibBound},
		{"device sync", devSyncCost, calibrationWaits, devCalibBound},
		{"kds call", kdsCallCost, calibrationWaits / 10, kdsCalibBound},
	} {
		took := make([]float64, c.n)
		for i := range took {
			took[i] = float64(preciseWait(c.nominal))
		}
		med := time.Duration(median(took))
		fmt.Fprintf(os.Stderr, "perfbench: calibration: %s: median %v for %v\n", c.name, med, c.nominal)
		if med < c.nominal || float64(med) > c.bound*float64(c.nominal) {
			bad = append(bad, fmt.Sprintf("calibration: %s: median wait %v over %d waits, want [%v, %v]",
				c.name, med, c.n, c.nominal, time.Duration(c.bound*float64(c.nominal))))
		}
	}
	return bad
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of raw samples, in µs.
func percentile(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e3
}
