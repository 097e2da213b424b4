package main

import (
	"io"
	"slices"
	"testing"
)

// TestFixtureReport runs the runner over testdata/fixture, whose four
// sites are one mutant of each outcome, and checks each row of the
// report, then that a recheck of the report on the same tree keeps it.
func TestFixtureReport(t *testing.T) {
	rep, err := run("testdata/fixture", []target{{"fixture.go", []string{"."}}}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	check(t, rep)
	if err := recheck("testdata/fixture", rep, io.Discard); err != nil {
		t.Fatal(err)
	}
	check(t, rep)
}

func check(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Targets) != 1 || rep.Targets[0].Sites != 4 || len(rep.Targets[0].Mutants) != 4 {
		t.Fatalf("want one target of four sites, all sampled: %+v", rep.Targets)
	}
	want := []struct {
		desc, status string
		killers      []string
		cascades     []string
	}{
		{"+ → -", "stillborn", nil, nil},
		{"> → >=", "survived", nil, nil},
		{"drop += n", "killed", []string{"fixture:TestAdd"}, nil},
		{"+ → -", "cascade", nil, []string{"fixture:TestSeen"}},
	}
	for i, m := range rep.Targets[0].Mutants {
		w := want[i]
		if m.Site != i || m.Desc != w.desc || m.Status != w.status ||
			!slices.Equal(m.Killers, w.killers) || !slices.Equal(m.Cascades, w.cascades) || len(m.Unconfirmed) != 0 {
			t.Errorf("mutant %d: got %+v, want %+v", i, m, w)
		}
	}
}
