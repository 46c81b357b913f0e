// Package metrics provides the latency histogram the benchmark harness
// records into, and Net, the process-wide fault-tolerance counters the
// network clients (KDS, dstore, replica set, compaction service) charge.
//
// Every other counter has one owner: an lsm.DB charges its own
// lsm.Metrics, a server.Server its serving counters, a vfs.QuotaFS its
// ErrNoSpace refusals, and a seccache.Cache its failed and dropped saves.
// Nothing else in a process can move them, so each count is attributable to
// one instance.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Histogram is a concurrent log-bucketed latency histogram. Buckets grow
// geometrically from 100 ns, giving ~4% resolution across ns..minutes.
type Histogram struct {
	mu      sync.Mutex
	buckets [256]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

const bucketGrowth = 1.08

// bucketFor maps a duration in nanoseconds to a bucket index.
func bucketFor(ns int64) int {
	if ns < 100 {
		return 0
	}
	idx := int(math.Log(float64(ns)/100) / math.Log(bucketGrowth))
	if idx < 0 {
		idx = 0
	}
	if idx > 255 {
		idx = 255
	}
	return idx
}

// bucketValue returns the representative nanoseconds of a bucket.
func bucketValue(idx int) int64 {
	return int64(100 * math.Pow(bucketGrowth, float64(idx)))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	ns := d.Nanoseconds()
	h.mu.Lock()
	h.buckets[bucketFor(ns)]++
	h.count++
	h.sum += ns
	if h.count == 1 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average latency.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Quantile returns the approximate q-quantile (0 < q <= 1).
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	buckets := other.buckets
	oCount, oSum, oMin, oMax := other.count, other.sum, other.min, other.max
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range buckets {
		h.buckets[i] += c
	}
	if oCount > 0 {
		if h.count == 0 || oMin < h.min {
			h.min = oMin
		}
		if oMax > h.max {
			h.max = oMax
		}
	}
	h.count += oCount
	h.sum += oSum
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99), time.Duration(h.max))
}
