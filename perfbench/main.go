// Command perfbench is the repository's benchmark: four named workloads
// that run the full SHIELD stack in one process on a device and KDS model
// it owns, check every answer, and print one JSON result line. See
// README.md for the workloads, metrics and models.
//
//	perfbench --workload fill --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// runLimit aborts a run that would overrun its time budget; it exits
// without printing a result.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fill, read, serve or ds-fill")
	seed := flag.Int64("seed", 1, "seed for keys, values and the op stream")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1: per-layer metrics from traced runs instead of end-to-end metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fill|read|serve|ds-fill --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})

	calib := calibrate()
	rec := newRecords(*seed)
	d := time.Duration(*seconds) * time.Second
	var res *result
	var problems []string
	var err error
	if *traced == 1 {
		res, problems, err = layerRun(w, *seed, rec, d)
	} else {
		res, problems, err = endToEndRun(w, *seed, rec, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	problems = append(problems, calib...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	res.Correct = len(problems) == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// problems lists what makes a phase's result unusable: wrong answers, a
// failed read-back, or modelled costs that strayed from nominal during the
// timed phase.
func problems(label string, p *phase) []string {
	var out []string
	if p.loop.wrong > 0 {
		out = append(out, fmt.Sprintf("%s: %d wrong or missing values, first: %v", label, p.loop.wrong, p.loop.firstErr))
	}
	for _, c := range timedWaits(p) {
		if c.snap.n == 0 {
			continue // a cost this workload does not incur
		}
		if med := c.snap.median(); float64(med) > c.bound*float64(c.snap.nominal) {
			out = append(out, fmt.Sprintf("%s: in-run calibration: %s: median wait %v over %d waits, want at most %v",
				label, c.name, med, c.snap.n, time.Duration(c.bound*float64(c.snap.nominal))))
		}
	}
	return out
}

func endToEndRun(w *workload, seed int64, rec records, d time.Duration) (*result, []string, error) {
	p, err := runPhase(w, true, nil, seed, rec, d, w.setups)
	if err != nil {
		return nil, nil, err
	}
	l := p.loop
	logPhase(w, "shield", p)
	ok := float64(l.ok())
	m := map[string]metric{
		"setup_s":       {p.setup.Seconds(), "s"},
		"ops_s":         {opsPerSec(p), "1/s"},
		"put_p50_us":    {percentile(l.put, 0.50), "us"},
		"get_p50_us":    {percentile(l.get, 0.50), "us"},
		"ok_frac":       {ok / float64(l.attempted), "fraction"},
		"slo_ok_frac":   {float64(l.sloOK) / float64(l.attempted), "fraction"},
		"cpu_us_per_op": {float64(p.after.cpu-p.before.cpu) / 1e3 / ok, "us"},
		"peak_heap_mb":  {p.peakHeap / (1 << 20), "MiB"},
		"space_amp":     {p.spaceAmp, "ratio"},
	}
	return &result{Attempted: l.attempted, Failed: l.failed, Metrics: m}, problems("shield", p), nil
}

func logPhase(w *workload, label string, p *phase) {
	l := p.loop
	fmt.Fprintf(os.Stderr, "perfbench: %s/%s: setup %.3fs, %d ops in %.2fs (%d failed), %d put and %d get samples, space amp %.3f, post-run %.2fs\n",
		w.name, label, p.setup.Seconds(), l.attempted, l.elapsed.Seconds(), l.failed,
		len(l.put), len(l.get), p.spaceAmp, p.post.Seconds())
	e, e0 := p.after.eng, p.before.eng
	fmt.Fprintf(os.Stderr, "perfbench: %s/%s: timed phase: %d flushes, %d compactions, peak heap %.1f MiB\n",
		w.name, label, e.Flushes-e0.Flushes, e.Compactions-e0.Compactions, p.peakHeap/(1<<20))
	for _, c := range timedWaits(p) {
		fmt.Fprintf(os.Stderr, "perfbench: %s/%s: %s wait: mean %.1fus, median %v (%d waits in the timed phase)\n",
			w.name, label, c.name, c.snap.meanUS(), c.snap.median(), c.snap.n)
	}
	if l.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s/%s: first failure: %v\n", w.name, label, l.firstErr)
	}
}
