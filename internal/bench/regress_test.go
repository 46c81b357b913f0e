package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// TestRegressionProfileSmoke runs the BENCH_5 profile at a tiny scale and
// checks the report's shape: both configurations, all three workloads, the
// headline speedup computed, and the JSON round-trips. Throughput ratios
// are not asserted — at smoke scale on shared CI hardware they are noise;
// the full-scale run (make bench-json) is where the speedup is read.
func TestRegressionProfileSmoke(t *testing.T) {
	report, err := RunRegression(0.05, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The profile must exercise the scheduler end to end, even if at smoke
	// scale the background jobs land outside the timed workload windows.
	var compactions, subcompactions int64
	for _, cr := range report.Configs {
		compactions += cr.Engine.Compactions
		subcompactions += cr.Engine.Subcompactions
	}
	if compactions == 0 || subcompactions == 0 {
		t.Errorf("profile scheduled no parallel work: compactions=%d subcompactions=%d", compactions, subcompactions)
	}
	if len(report.Configs) != 2 {
		t.Fatalf("got %d configs, want 2", len(report.Configs))
	}
	wantWorkloads := []string{"fillrandom", "readrandom", "overwrite"}
	for _, cr := range report.Configs {
		if len(cr.Workloads) != len(wantWorkloads) {
			t.Fatalf("config %s: got %d workloads, want %d",
				cr.Config.Name, len(cr.Workloads), len(wantWorkloads))
		}
		for i, w := range cr.Workloads {
			if w.Name != wantWorkloads[i] {
				t.Errorf("config %s workload %d = %q, want %q", cr.Config.Name, i, w.Name, wantWorkloads[i])
			}
			if w.Ops == 0 || w.OpsPerSec <= 0 {
				t.Errorf("config %s %s: empty result %+v", cr.Config.Name, w.Name, w)
			}
			if w.Errors != 0 {
				t.Errorf("config %s %s: %d op errors", cr.Config.Name, w.Name, w.Errors)
			}
		}
	}
	// The parallel configuration must actually have scheduled parallel work.
	par := report.Configs[1]
	if par.Config.MaxBackgroundJobs != 4 || par.Config.MaxSubcompactions != 4 {
		t.Fatalf("parallel config = %+v", par.Config)
	}
	if report.ParallelSpeedupFillRandom <= 0 {
		t.Errorf("speedup not computed: %v", report.ParallelSpeedupFillRandom)
	}

	// The serving-layer section: clients actually pushed ops through the
	// in-process server, nothing errored, and group commit kept the fsync
	// count below the acknowledged SET count.
	srv := report.Server
	if srv == nil {
		t.Fatal("report has no server section")
	}
	if srv.Ops == 0 || srv.OpsPerSec <= 0 || srv.Sets == 0 || srv.Gets == 0 {
		t.Errorf("server section empty: %+v", srv)
	}
	if srv.Errors != 0 {
		t.Errorf("server section: %d errors", srv.Errors)
	}
	if srv.WALSyncs == 0 || srv.WALSyncs >= srv.Sets {
		t.Errorf("group commit not observed: wal_syncs=%d sets=%d", srv.WALSyncs, srv.Sets)
	}

	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RegressReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Schema != report.Schema || len(back.Configs) != len(report.Configs) {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}
