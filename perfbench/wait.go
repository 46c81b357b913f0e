package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK. Linux rounds a sleeping
// thread's wake-up up by its timer slack (50 µs by default), which alone is
// larger than the 40 µs device read being modelled.
const prSetTimerSlack = 29

// preciseWait blocks the calling goroutine's OS thread for d with a raw
// nanosleep at 1 ns timer slack, and returns the time it really took.
// time.Sleep cannot model microsecond costs: on a 2-vCPU box it returns
// after about 1 ms whatever the argument. The thread is blocked in a system
// call, as it would be in a real pread or fsync, so the Go scheduler hands
// its processor to other goroutines.
func preciseWait(d time.Duration) time.Duration {
	start := time.Now()
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) //nolint:errcheck // best effort: the calibration check catches a coarse sleep
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			break
		}
		ts = rem
	}
	runtime.UnlockOSThread()
	return time.Since(start)
}

// waitBuckets is the resolution of a waitStat's histogram: buckets one
// hundredth of the nominal cost wide, the last one open-ended from ten
// times nominal.
const waitBuckets = 1000

// waitStat accumulates the measured waits of one modelled cost, for the
// calibration checks and the per-layer wait metrics.
type waitStat struct {
	nominal time.Duration
	n       atomic.Int64
	ns      atomic.Int64
	hist    [waitBuckets]atomic.Int64
}

// charge waits the nominal cost and records how long that took.
func (w *waitStat) charge() {
	took := preciseWait(w.nominal)
	w.n.Add(1)
	w.ns.Add(int64(took))
	w.hist[min(int(took*100/w.nominal), waitBuckets-1)].Add(1)
}

type waitSnap struct {
	nominal time.Duration
	n, ns   int64
	hist    []int64
}

func (w *waitStat) snap() waitSnap {
	s := waitSnap{nominal: w.nominal, n: w.n.Load(), ns: w.ns.Load(), hist: make([]int64, waitBuckets)}
	for i := range s.hist {
		s.hist[i] = w.hist[i].Load()
	}
	return s
}

// add merges two snapshots of waits with the same nominal cost; either may
// be the zero snapshot.
func (s waitSnap) add(o waitSnap) waitSnap { return s.combine(o, 1) }

func (s waitSnap) sub(o waitSnap) waitSnap { return s.combine(o, -1) }

func (s waitSnap) combine(o waitSnap, sign int64) waitSnap {
	out := waitSnap{nominal: max(s.nominal, o.nominal), n: s.n + sign*o.n, ns: s.ns + sign*o.ns, hist: make([]int64, waitBuckets)}
	for i := range out.hist {
		if i < len(s.hist) {
			out.hist[i] = s.hist[i]
		}
		if i < len(o.hist) {
			out.hist[i] += sign * o.hist[i]
		}
	}
	return out
}

// meanUS is the mean measured wait in microseconds (0 with no samples).
func (s waitSnap) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n) / 1e3
}

// median is the upper edge of the histogram bucket that holds the median
// wait, within a hundredth of the nominal cost (0 with no samples).
func (s waitSnap) median() time.Duration {
	var seen int64
	for i, c := range s.hist {
		if seen += c; 2*seen >= s.n && s.n > 0 {
			return s.nominal * time.Duration(i+1) / 100
		}
	}
	return 0
}
