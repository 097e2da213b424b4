package eval

import (
	"path/filepath"
	"testing"

	"cbvr/internal/core"
	"cbvr/internal/synthvid"
)

func TestPrecisionAtK(t *testing.T) {
	rel := []bool{true, false, true, true}
	if p := PrecisionAtK(rel, 2); p != 0.5 {
		t.Errorf("p@2 = %g", p)
	}
	if p := PrecisionAtK(rel, 4); p != 0.75 {
		t.Errorf("p@4 = %g", p)
	}
	// Shorter result lists pad as irrelevant.
	if p := PrecisionAtK(rel, 8); p != 3.0/8 {
		t.Errorf("p@8 = %g", p)
	}
	if p := PrecisionAtK(rel, 0); p != 0 {
		t.Errorf("p@0 = %g", p)
	}
}

func TestAveragePrecision(t *testing.T) {
	// Relevant at ranks 1 and 3 of 2 total: AP = (1/1 + 2/3)/2.
	rel := []bool{true, false, true}
	want := (1.0 + 2.0/3) / 2
	if ap := AveragePrecision(rel, 2); ap < want-1e-12 || ap > want+1e-12 {
		t.Errorf("AP = %g, want %g", ap, want)
	}
	if ap := AveragePrecision(nil, 0); ap != 0 {
		t.Errorf("empty AP = %g", ap)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %g", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("empty mean = %g", m)
	}
}

func TestCategoryOfVideoName(t *testing.T) {
	cat, ok := CategoryOfVideoName("sports_03")
	if !ok || cat != synthvid.Sports {
		t.Errorf("sports_03 -> %v %v", cat, ok)
	}
	if _, ok := CategoryOfVideoName("noseparator"); ok {
		t.Error("name without separator accepted")
	}
	if _, ok := CategoryOfVideoName("opera_01"); ok {
		t.Error("unknown category accepted")
	}
}

func TestTable1MethodsMatchPaperColumns(t *testing.T) {
	methods := Table1Methods()
	paper := PaperTable1()
	if len(methods) != len(paper) {
		t.Fatalf("methods %d vs paper rows %d", len(methods), len(paper))
	}
	for i := range methods {
		if methods[i].Name != paper[i].Method {
			t.Errorf("column %d: %s vs %s", i, methods[i].Name, paper[i].Method)
		}
	}
	// The paper's combined row dominates every single feature at every
	// cut-off — the claim our reproduction must reproduce in shape.
	combined := paper[len(paper)-1]
	for _, row := range paper[:len(paper)-1] {
		for ci := range Cutoffs {
			if combined.P[ci] <= row.P[ci] {
				t.Errorf("paper table inconsistency: combined %g <= %s %g at k=%d",
					combined.P[ci], row.Method, row.P[ci], Cutoffs[ci])
			}
		}
	}
}

func TestBuildQueriesCoverage(t *testing.T) {
	qs := BuildQueries(Table1Config{QueriesPerCategory: 2})
	if len(qs) != 2*synthvid.NumCategories {
		t.Fatalf("queries = %d", len(qs))
	}
	perCat := make(map[synthvid.Category]int)
	for _, q := range qs {
		if q.Frame == nil {
			t.Fatal("nil query frame")
		}
		perCat[q.Category]++
	}
	for _, c := range synthvid.AllCategories() {
		if perCat[c] != 2 {
			t.Errorf("category %v has %d queries", c, perCat[c])
		}
	}
}

// TestTable1SmallScaleShape runs the full Table 1 pipeline at reduced
// scale and checks the structural claims: all rows present, precisions in
// [0,1], precision non-increasing in k for the combined method, and
// combined at least competitive with the median single feature.
func TestTable1SmallScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 pipeline is slow")
	}
	eng, err := core.Open(filepath.Join(t.TempDir(), "t1.db"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := Table1Config{
		VideosPerCategory:  2,
		QueriesPerCategory: 1,
		Video:              synthvid.Config{Width: 96, Height: 72, Frames: 12, Shots: 3},
		Seed:               7,
	}
	n, err := BuildCorpus(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*synthvid.NumCategories {
		t.Fatalf("corpus = %d videos", n)
	}
	res, err := RunTable1(eng, BuildQueries(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for ci, p := range row.P {
			if p < 0 || p > 1 {
				t.Errorf("%s P@%d = %g outside [0,1]", row.Method, Cutoffs[ci], p)
			}
		}
	}
	combined := res.Row("Combined")
	if combined == nil {
		t.Fatal("no combined row")
	}
	// At this tiny scale every category has few relevant frames, so
	// precision must fall with k (k=100 exceeds the relevant pool).
	if combined.P[0] < combined.P[3] {
		t.Errorf("combined precision should not rise with k: %v", combined.P)
	}
	// Combined should beat the weakest single feature at k=20.
	worst := 1.0
	for _, row := range res.Rows[:6] {
		if row.P[0] < worst {
			worst = row.P[0]
		}
	}
	if combined.P[0] < worst {
		t.Errorf("combined %g below worst single feature %g", combined.P[0], worst)
	}
	if out := FormatTable(res.Rows); len(out) == 0 {
		t.Error("empty table rendering")
	}
}
