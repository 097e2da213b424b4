package main

import (
	"slices"
	"sort"
	"testing"
	"time"
)

// TestSmokeMatchesManifest runs every workload at toy size, untraced and
// traced, against a real cbvr-server child, and holds what was emitted
// against BENCHMARK.json in both directions: every declared workload runs,
// every workload the harness knows is declared, and each run emits exactly
// the declared metrics. The two cannot drift.
func TestSmokeMatchesManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns child processes")
	}
	defer runCleanups()
	mf, err := loadManifest("")
	if err != nil {
		t.Fatal(err)
	}
	declared := mf.workloadNames()
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(known)
	if !slices.Equal(declared, known) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the harness has %v", declared, known)
	}

	bin, err := buildServer(mf.root)
	if err != nil {
		t.Fatal(err)
	}
	e := env{seed: 1, sz: smokeSizes, serverBin: bin}
	for _, name := range declared {
		for _, mode := range []struct {
			trace int
			decls []metricDecl
		}{{0, mf.EndToEnd}, {1, mf.PerLayer}} {
			w := workloads[name]()
			var res result
			if mode.trace == 0 {
				res, err = runEndToEnd(w, e, time.Minute)
			} else {
				res, err = runLayers(w, e, time.Minute, "")
			}
			w.discard()
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, mode.trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace %d: %d of %d ops failed, gates: %v", name, mode.trace, res.Failed, res.Attempted, res.problems)
			}
			var want, got []string
			for _, d := range mode.decls {
				want = append(want, d.Name)
			}
			for m := range res.Metrics {
				got = append(got, m)
			}
			sort.Strings(want)
			sort.Strings(got)
			if !slices.Equal(want, got) {
				t.Errorf("%s trace %d emitted %v\nBENCHMARK.json declares %v", name, mode.trace, got, want)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
