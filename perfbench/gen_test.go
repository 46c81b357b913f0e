package main

import "testing"

// TestOpStreamFingerprints pins a hash of the first fingerprintOps
// operations of every client of every workload, keys and values rendered,
// for two seeds. The streams come from internal/bench's KeyGen, ValueGen
// and Zipfian; if one of them changes, the numbers this benchmark reports
// stop being comparable with earlier runs, and this test says so.
func TestOpStreamFingerprints(t *testing.T) {
	const fingerprintOps = 4096
	want := map[string][2]uint64{
		"fill":    {0x51b70c7ea74e9d3c, 0x1b6be7224aa73fe6},
		"read":    {0xff4c818c8d0a85a0, 0x5972bedb4af2b4b8},
		"serve":   {0x20a402d7de30ae3f, 0x23b6a0e24f90266e},
		"ds-fill": {0x8fdcef68fddfcd4b, 0x0ac3d81cf6be89e6},
	}
	for _, w := range workloads {
		for i, seed := range []int64{1, 2} {
			if got := fingerprint(w, seed, fingerprintOps); got != want[w.name][i] {
				t.Errorf("%s seed %d: op stream fingerprint %#x, pinned %#x", w.name, seed, got, want[w.name][i])
			}
		}
	}
}

func TestStreamsDependOnSeedAndClient(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newStream(w, 1, 0), newStream(w, 2, 0), newStream(w, 1, 1)
		sameSeed, sameClient := true, true
		for i := 0; i < 64; i++ {
			x, y, z := a.next(), b.next(), c.next()
			sameSeed = sameSeed && x == y
			sameClient = sameClient && x == z
		}
		if sameSeed || sameClient {
			t.Errorf("%s: streams repeat across seeds (%v) or clients (%v)", w.name, sameSeed, sameClient)
		}
	}
}
