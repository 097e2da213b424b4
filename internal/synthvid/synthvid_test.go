package synthvid

import (
	"testing"

	"cbvr/internal/features"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Frames: 12, Shots: 3, Seed: 42}
	for _, cat := range AllCategories() {
		a := Generate(cat, cfg)
		b := Generate(cat, cfg)
		if len(a.Frames) != len(b.Frames) {
			t.Fatalf("%v: frame counts differ", cat)
		}
		for i := range a.Frames {
			if !a.Frames[i].Equal(b.Frames[i]) {
				t.Fatalf("%v: frame %d differs across identical seeds", cat, i)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(Sports, Config{Frames: 8, Seed: 1})
	b := Generate(Sports, Config{Frames: 8, Seed: 2})
	same := 0
	for i := range a.Frames {
		if a.Frames[i].Equal(b.Frames[i]) {
			same++
		}
	}
	if same == len(a.Frames) {
		t.Error("different seeds produced identical videos")
	}
}

func TestGenerateFrameCountAndSize(t *testing.T) {
	cfg := Config{Width: 80, Height: 60, Frames: 20, Shots: 4, Seed: 3}
	v := Generate(Cartoon, cfg)
	if len(v.Frames) != 20 {
		t.Fatalf("frames = %d", len(v.Frames))
	}
	for _, f := range v.Frames {
		if f.W != 80 || f.H != 60 {
			t.Fatalf("frame size %dx%d", f.W, f.H)
		}
	}
	if len(v.ShotStarts) == 0 || v.ShotStarts[0] != 0 {
		t.Errorf("shot starts: %v", v.ShotStarts)
	}
	for i := 1; i < len(v.ShotStarts); i++ {
		if v.ShotStarts[i] <= v.ShotStarts[i-1] {
			t.Errorf("shot starts not increasing: %v", v.ShotStarts)
		}
		if v.ShotStarts[i] >= len(v.Frames) {
			t.Errorf("shot start beyond video: %v", v.ShotStarts)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	v := Generate(News, Config{})
	if len(v.Frames) != 48 {
		t.Errorf("default frames = %d", len(v.Frames))
	}
	if v.Frames[0].W != 160 || v.Frames[0].H != 120 {
		t.Errorf("default size %dx%d", v.Frames[0].W, v.Frames[0].H)
	}
	if v.FPS != 12 {
		t.Errorf("default fps = %d", v.FPS)
	}
}

func TestCategoryStringParse(t *testing.T) {
	for _, c := range AllCategories() {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Errorf("category %v round trip: %v %v", c, got, err)
		}
	}
	if _, err := ParseCategory("opera"); err == nil {
		t.Error("bogus category accepted")
	}
}

func TestGenerateCorpusNamesAndCoverage(t *testing.T) {
	vids := GenerateCorpus(3, Config{Frames: 6, Shots: 2, Seed: 9})
	if len(vids) != 3*NumCategories {
		t.Fatalf("corpus size %d", len(vids))
	}
	seen := make(map[string]bool)
	for _, v := range vids {
		if seen[v.Name] {
			t.Errorf("duplicate name %s", v.Name)
		}
		seen[v.Name] = true
	}
	if !seen["sports_00"] || !seen["nature_02"] {
		t.Error("expected names missing")
	}
}

// Categories must be visually distinguishable: the mean within-category
// histogram distance should be smaller than the mean between-category
// distance — this is the signal Table 1 relies on.
func TestCategoriesAreVisuallySeparable(t *testing.T) {
	cfg := Config{Frames: 4, Shots: 1, Noise: 5}
	perCat := 3
	hists := make(map[Category][]*features.ColorHistogram)
	for _, cat := range AllCategories() {
		for i := 0; i < perCat; i++ {
			c := cfg
			c.Seed = int64(100 + i*37)
			v := Generate(cat, c)
			h, err := features.ExtractWith(features.KindHistogram, features.NewPlanes(v.Frames[len(v.Frames)/2]))
			if err != nil {
				t.Fatal(err)
			}
			hists[cat] = append(hists[cat], h.(*features.ColorHistogram))
		}
	}
	var within, between []float64
	for ca, la := range hists {
		for cb, lb := range hists {
			for i, a := range la {
				for j, b := range lb {
					if ca == cb && i >= j {
						continue
					}
					d, err := a.DistanceTo(b)
					if err != nil {
						t.Fatal(err)
					}
					if ca == cb {
						within = append(within, d)
					} else if i == 0 && j == 0 {
						between = append(between, d)
					}
				}
			}
		}
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	mw, mb := mean(within), mean(between)
	if mw >= mb {
		t.Errorf("within-category distance %.3f >= between %.3f: categories not separable", mw, mb)
	}
}

// Shot boundaries should be visible: consecutive frames across a shot cut
// differ more (naive distance) than consecutive frames within a shot.
func TestShotCutsAreVisible(t *testing.T) {
	v := Generate(Movie, Config{Frames: 30, Shots: 3, Seed: 11})
	if len(v.ShotStarts) < 2 {
		t.Skip("single shot")
	}
	sig := make([]*features.NaiveSignature, len(v.Frames))
	for i, f := range v.Frames {
		s := features.NaiveOf(f.Source())
		sig[i] = &s
	}
	cut := v.ShotStarts[1]
	dCut, _ := sig[cut-1].DistanceTo(sig[cut])
	dIn, _ := sig[cut-2].DistanceTo(sig[cut-1])
	if dCut <= dIn {
		t.Logf("warning: cut distance %.1f <= in-shot %.1f (scenes can coincide)", dCut, dIn)
	}
	if dCut == 0 {
		t.Error("frames across a cut are identical")
	}
}

func TestNoiseBounded(t *testing.T) {
	v := Generate(Elearning, Config{Frames: 2, Shots: 1, Noise: 200, Seed: 5})
	for _, f := range v.Frames {
		if len(f.Pix) == 0 {
			t.Fatal("empty frame")
		}
	}
}

func TestShotBoundariesHelper(t *testing.T) {
	v := Generate(Nature, Config{Frames: 5, Shots: 10, Seed: 2}) // shots > frames
	if len(v.Frames) != 5 {
		t.Errorf("frames = %d", len(v.Frames))
	}
	for i := 1; i < len(v.ShotStarts); i++ {
		if v.ShotStarts[i] <= v.ShotStarts[i-1] {
			t.Fatalf("non-increasing shot starts %v", v.ShotStarts)
		}
	}
}
