package features

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cbvr/internal/imaging"
)

func randomFrame(seed int64, w, h int) *imaging.Image {
	rng := rand.New(rand.NewSource(seed))
	im := imaging.New(w, h)
	rng.Read(im.Pix)
	return im
}

// structuredFrame builds a frame with regions and texture, more realistic
// than uniform noise.
func structuredFrame(seed int64) *imaging.Image {
	rng := rand.New(rand.NewSource(seed))
	im := imaging.New(120, 90)
	base := uint8(rng.Intn(200))
	im.Fill(base, base/2, 255-base)
	for i := 0; i < 5; i++ {
		x0, y0 := rng.Intn(100), rng.Intn(70)
		c := uint8(rng.Intn(256))
		for y := y0; y < y0+20 && y < im.H; y++ {
			for x := x0; x < x0+20 && x < im.W; x++ {
				im.Set(x, y, c, 255-c, c/2)
			}
		}
	}
	return im
}

func TestKindStringParse(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("kind %v round trip failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Error("bogus kind accepted")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("out-of-range kind String")
	}
}

func TestExtractDispatchAllKinds(t *testing.T) {
	im := structuredFrame(1)
	for _, k := range AllKinds() {
		d, err := Extract(k, im)
		if err != nil {
			t.Fatalf("extract %v: %v", k, err)
		}
		if d.Kind() != k {
			t.Errorf("descriptor kind %v, want %v", d.Kind(), k)
		}
		if d.String() == "" {
			t.Errorf("%v: empty serialisation", k)
		}
	}
	if _, err := Extract(Kind(99), im); err == nil {
		t.Error("unknown kind accepted")
	}
}

// Every descriptor round-trips exactly through its string form, and the
// reconstruction is at distance zero from the original.
func TestStringRoundTripAllKinds(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		im := structuredFrame(seed)
		set := NewPlanes(im).ExtractAll()
		for _, k := range AllKinds() {
			d := set.Get(k)
			s := d.String()
			back, err := Parse(k, s)
			if err != nil {
				t.Fatalf("parse %v: %v\nstring: %.120s", k, err, s)
			}
			if back.String() != s {
				t.Errorf("%v: reserialisation differs", k)
			}
			dist, err := d.DistanceTo(back)
			if err != nil {
				t.Fatal(err)
			}
			if dist != 0 {
				t.Errorf("%v: round-trip distance %g != 0", k, dist)
			}
		}
	}
}

// Identity and symmetry properties of every distance.
func TestDistanceIdentitySymmetry(t *testing.T) {
	a := NewPlanes(structuredFrame(10)).ExtractAll()
	b := NewPlanes(structuredFrame(11)).ExtractAll()
	for _, k := range AllKinds() {
		da, db := a.Get(k), b.Get(k)
		self, err := da.DistanceTo(da)
		if err != nil || self != 0 {
			t.Errorf("%v: d(x,x) = %g err=%v", k, self, err)
		}
		ab, err1 := da.DistanceTo(db)
		ba, err2 := db.DistanceTo(da)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: %v %v", k, err1, err2)
		}
		if math.Abs(ab-ba) > 1e-9 {
			t.Errorf("%v: asymmetric distance %g vs %g", k, ab, ba)
		}
		if ab < 0 {
			t.Errorf("%v: negative distance %g", k, ab)
		}
	}
}

// Distances across kinds must be rejected.
func TestDistanceKindMismatch(t *testing.T) {
	set := NewPlanes(structuredFrame(3)).ExtractAll()
	kinds := AllKinds()
	for i, k := range kinds {
		other := set.Get(kinds[(i+1)%len(kinds)])
		if _, err := set.Get(k).DistanceTo(other); err == nil {
			t.Errorf("%v accepted a %v descriptor", k, other.Kind())
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[Kind][]string{
		KindHistogram:   {"", "RGB", "RGB 255 1 2", "XXX 256 1", "RGB 256 " + strings.Repeat("-1 ", 256)},
		KindGLCM:        {"", "1 2 3", "a b c d e f"},
		KindGabor:       {"", "gabor 59 1", "gabor 60 x"},
		KindTamura:      {"", "Tamura 17 1", "tamura 18 1"},
		KindCorrelogram: {"", "ACC 3 1", "ACC 4 x"},
		KindNaive:       {"", "NaiveVector xxx", "NaiveVector java.awt.Color[r=300,g=0,b=0]"},
		KindRegions:     {"", "Regions 1 2", "Regions a b c", "Regions -1 2 3"},
	}
	for k, ss := range cases {
		for _, s := range ss {
			if _, err := Parse(k, s); err == nil {
				t.Errorf("%v accepted malformed %q", k, s)
			}
		}
	}
}

// TestParseRejectsNonFinite: strconv.ParseFloat accepts every spelling
// of NaN and the infinities, but a descriptor holding one would poison
// every distance to its row. Each float-bearing kind must reject each
// spelling in its first and its last value field, naming the kind.
func TestParseRejectsNonFinite(t *testing.T) {
	spellings := []string{"NaN", "nan", "+NaN", "Inf", "+Inf", "-Inf", "inf", "infinity", "-Infinity", "+INFINITY"}
	set := NewPlanes(structuredFrame(4)).ExtractAll()
	// The value count of each kind's String form, which ends in its values.
	values := map[Kind]int{KindGLCM: 6, KindGabor: GaborVectorLen, KindTamura: TamuraVectorLen, KindCorrelogram: correlogramCells}
	for k, nv := range values {
		fields := strings.Fields(set.Get(k).String())
		for _, at := range []int{len(fields) - nv, len(fields) - 1} {
			for _, sp := range spellings {
				bad := slices.Clone(fields)
				bad[at] = sp
				s := strings.Join(bad, " ")
				_, err := Parse(k, s)
				if err == nil {
					t.Errorf("%v accepted %q in field %d", k, sp, at)
					continue
				}
				if !strings.Contains(err.Error(), k.String()) || !strings.Contains(err.Error(), sp) {
					t.Errorf("%v: error %q names neither the kind nor the value %q", k, err, sp)
				}
			}
		}
	}
}

func TestSetPutGet(t *testing.T) {
	set := &Set{}
	im := structuredFrame(5)
	for _, k := range AllKinds() {
		if set.Get(k) != nil {
			t.Fatalf("%v present in empty set", k)
		}
		d, _ := Extract(k, im)
		if err := set.Put(d); err != nil {
			t.Fatal(err)
		}
		if set.Get(k) == nil {
			t.Fatalf("%v missing after Put", k)
		}
	}
}

// Determinism: extracting twice gives identical serialisations.
func TestExtractionDeterministic(t *testing.T) {
	im := structuredFrame(8)
	s1 := NewPlanes(im).ExtractAll()
	s2 := NewPlanes(im).ExtractAll()
	for _, k := range AllKinds() {
		if s1.Get(k).String() != s2.Get(k).String() {
			t.Errorf("%v extraction not deterministic", k)
		}
	}
}

// Similar frames must be closer than dissimilar frames for the colour-
// driven descriptors (sanity of the metric direction).
func TestDistanceDiscriminates(t *testing.T) {
	base := structuredFrame(20)
	near := base.Clone()
	// Small perturbation.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < len(near.Pix)/50; i++ {
		near.Pix[rng.Intn(len(near.Pix))] ^= 0x08
	}
	far := structuredFrame(999)
	for _, k := range []Kind{KindHistogram, KindCorrelogram, KindNaive} {
		db, _ := Extract(k, base)
		dn, _ := Extract(k, near)
		df, _ := Extract(k, far)
		dNear, _ := db.DistanceTo(dn)
		dFar, _ := db.DistanceTo(df)
		if dNear >= dFar {
			t.Errorf("%v: near %g >= far %g", k, dNear, dFar)
		}
	}
}

func TestQuantizeRGBCoversAllBins(t *testing.T) {
	seen := make(map[int]bool)
	for r := 0; r < 256; r += 16 {
		for g := 0; g < 256; g += 16 {
			for b := 0; b < 256; b += 32 {
				bin := QuantizeRGB(uint8(r), uint8(g), uint8(b))
				if bin < 0 || bin >= HistogramBins {
					t.Fatalf("bin %d out of range", bin)
				}
				seen[bin] = true
			}
		}
	}
	if len(seen) != HistogramBins {
		t.Errorf("quantiser reaches %d bins, want %d", len(seen), HistogramBins)
	}
}

// Histogram mass equals the analysis raster area.
func TestHistogramMass(t *testing.T) {
	h := extractColorHistogramWith(NewPlanes(randomFrame(1, 33, 47)))
	if h.Total() != AnalysisSize*AnalysisSize {
		t.Errorf("total %d, want %d", h.Total(), AnalysisSize*AnalysisSize)
	}
}

// The normalised L1 distance is mathematically at most 2, but it is a sum
// of 2×256 rounded quotients, so near-disjoint histograms can land a few
// ulps above: the bound is asserted with that slack, on a fixed-seed draw.
func TestHistogramDistanceBounds(t *testing.T) {
	const slack = 1e-12
	f := func(s1, s2 int64) bool {
		a := extractColorHistogramWith(NewPlanes(structuredFrame(s1)))
		b := extractColorHistogramWith(NewPlanes(structuredFrame(s2)))
		d, err := a.DistanceTo(b)
		return err == nil && d >= 0 && d <= 2+slack
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// The worst case outright: disjoint colour support (even bins against
	// odd bins), unevenly filled so no quotient is exact.
	even, odd := imaging.New(AnalysisSize, AnalysisSize), imaging.New(AnalysisSize, AnalysisSize)
	for i := 0; i < AnalysisSize*AnalysisSize; i++ {
		bin := i * i % 251 / 2 * 2 // an even bin < 256, skewed towards some
		r, g, b := uint8(bin>>5<<5), uint8(bin>>2&7<<5), uint8(bin&3<<6)
		copy(even.Pix[i*3:], []uint8{r, g, b})
		copy(odd.Pix[i*3:], []uint8{r, g, b + 64}) // bin+1
	}
	d, err := extractColorHistogramWith(NewPlanes(even)).DistanceTo(extractColorHistogramWith(NewPlanes(odd)))
	if err != nil || math.Abs(d-2) > slack {
		t.Errorf("disjoint histograms: d = %v (err %v), want 2 within %g", d, err, slack)
	}
}

func TestGLCMPixelCounterMatchesPaper(t *testing.T) {
	// The paper's sample output reports pixelCounter 180000 for its query
	// frame — 2·300·300 with the off-by-one step loss at row ends
	// (2·300·299 = 179400; the published value implies the full double
	// count). Our faithful implementation counts 2 per (x, x+1) pair:
	// 2·(300-1)·300 = 179400.
	g := extractGLCMWith(NewPlanes(randomFrame(2, 64, 64)))
	want := float64(2 * (AnalysisSize - 1) * AnalysisSize)
	if g.PixelCounter != want {
		t.Errorf("pixelCounter = %v, want %v", g.PixelCounter, want)
	}
}

func TestGLCMUniformImage(t *testing.T) {
	im := imaging.New(50, 50)
	im.Fill(128, 128, 128)
	g := extractGLCMWith(NewPlanes(im))
	if g.Contrast != 0 {
		t.Errorf("uniform contrast = %v", g.Contrast)
	}
	if math.Abs(g.ASM-1) > 1e-9 {
		t.Errorf("uniform ASM = %v, want 1", g.ASM)
	}
	if g.Entropy > 1e-9 {
		t.Errorf("uniform entropy = %v", g.Entropy)
	}
	if math.Abs(g.IDM-1) > 1e-9 {
		t.Errorf("uniform IDM = %v, want 1", g.IDM)
	}
}

func TestGaborUniformNearZero(t *testing.T) {
	im := imaging.New(64, 64)
	im.Fill(180, 180, 180)
	g := extractGaborWith(NewPlanes(im))
	for i, v := range g.Vec {
		if math.Abs(v) > 0.05 {
			t.Errorf("uniform image gabor[%d] = %g", i, v)
		}
	}
}

func TestTamuraUniformContrastZero(t *testing.T) {
	im := imaging.New(64, 64)
	im.Fill(99, 99, 99)
	tm := extractTamuraWith(NewPlanes(im))
	if tm.Contrast != 0 {
		t.Errorf("uniform contrast = %v", tm.Contrast)
	}
	var votes float64
	for _, v := range tm.Directionality {
		votes += v
	}
	if votes != 0 {
		t.Errorf("uniform image has %v directionality votes", votes)
	}
}

func TestRegionsUniform(t *testing.T) {
	im := imaging.New(60, 60)
	im.Fill(200, 200, 200)
	r := extractRegionsWith(NewPlanes(im))
	if r.Regions != 1 || r.Major != 1 {
		t.Errorf("uniform image: %+v", r)
	}
}

func TestGLCMTexturedVsSmooth(t *testing.T) {
	smooth := imaging.New(64, 64)
	smooth.Fill(100, 100, 100)
	noisy := randomFrame(3, 64, 64)
	gs := extractGLCMWith(NewPlanes(smooth))
	gn := extractGLCMWith(NewPlanes(noisy))
	if gn.Contrast <= gs.Contrast {
		t.Error("noise should raise contrast")
	}
	if gn.Entropy <= gs.Entropy {
		t.Error("noise should raise entropy")
	}
	if gn.ASM >= gs.ASM {
		t.Error("noise should lower ASM")
	}
}

func TestGaborVectorBugLayout(t *testing.T) {
	// The faithful layout (paper/LIRE bug m*N + n*2) leaves indices
	// >= 36 zero; the corrected layout fills all 60.
	im := structuredFrame(4)
	buggy := extractGaborWith(NewPlanes(im))
	for i := GaborScales*GaborOrientations + (GaborOrientations-1)*2; i < GaborVectorLen; i++ {
		if buggy.Vec[i] != 0 {
			t.Fatalf("faithful layout has nonzero tail at %d", i)
		}
	}
	fixed := ExtractGaborCorrected(im)
	nonzero := 0
	for _, v := range fixed.Vec {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < GaborVectorLen/2 {
		t.Errorf("corrected layout only %d nonzero entries", nonzero)
	}
}

func TestGaborOrientationSensitivity(t *testing.T) {
	// Horizontal vs vertical stripes must produce different vectors.
	horiz := imaging.New(64, 64)
	vert := imaging.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			if y%8 < 4 {
				horiz.Set(x, y, 255, 255, 255)
			}
			if x%8 < 4 {
				vert.Set(x, y, 255, 255, 255)
			}
		}
	}
	gh := extractGaborWith(NewPlanes(horiz))
	gv := extractGaborWith(NewPlanes(vert))
	d, _ := gh.DistanceTo(gv)
	if d < 1e-3 {
		t.Errorf("orientation-blind gabor: distance %g", d)
	}
}

func TestTamuraValues(t *testing.T) {
	tm := extractTamuraWith(NewPlanes(structuredFrame(5)))
	if tm.Coarseness <= 0 {
		t.Error("coarseness should be positive on structured content")
	}
	if tm.Contrast < 0 {
		t.Error("negative contrast")
	}
	var dirTotal float64
	for _, v := range tm.Directionality {
		if v < 0 {
			t.Fatal("negative directionality bin")
		}
		dirTotal += v
	}
	if dirTotal == 0 {
		t.Error("no directionality votes on structured content")
	}
}

func TestTamuraStringHas18Values(t *testing.T) {
	s := extractTamuraWith(NewPlanes(structuredFrame(6))).String()
	fields := strings.Fields(s)
	if fields[0] != "Tamura" || fields[1] != "18" || len(fields) != 20 {
		t.Errorf("tamura format: %.80s (%d fields)", s, len(fields))
	}
}

func TestCorrelogramValuesNormalised(t *testing.T) {
	c := extractCorrelogramWith(NewPlanes(structuredFrame(7)))
	for b := 0; b < CorrelogramBins; b++ {
		for d := 0; d < CorrelogramMaxDistance; d++ {
			v := c.Cor[b][d]
			if v < 0 || v > 1 {
				t.Fatalf("cor[%d][%d] = %g outside [0,1]", b, d, v)
			}
		}
	}
	// Max-normalisation: at least one cell per distance equals 1 (unless
	// the distance column was all zero).
	for d := 0; d < CorrelogramMaxDistance; d++ {
		max := 0.0
		for b := 0; b < CorrelogramBins; b++ {
			if c.Cor[b][d] > max {
				max = c.Cor[b][d]
			}
		}
		if max != 0 && math.Abs(max-1) > 1e-9 {
			t.Errorf("distance %d max = %g, want 1", d, max)
		}
	}
}

func TestCorrelogramStringFormat(t *testing.T) {
	s := extractCorrelogramWith(NewPlanes(structuredFrame(8))).String()
	fields := strings.Fields(s)
	if fields[0] != "ACC" || fields[1] != "4" {
		t.Errorf("ACC prefix: %.40s", s)
	}
	if len(fields) != 2+CorrelogramBins*CorrelogramMaxDistance {
		t.Errorf("ACC field count %d", len(fields))
	}
}

func TestQuantizeHSVRange(t *testing.T) {
	f := func(r, g, b uint8) bool {
		q := QuantizeHSV(r, g, b)
		return q >= 0 && q < CorrelogramBins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNaiveSignatureFormatMatchesPaper(t *testing.T) {
	im := imaging.New(10, 10) // black
	n := extractNaiveWith(NewPlanes(im))
	s := n.String()
	if !strings.HasPrefix(s, "NaiveVector java.awt.Color[r=0,g=0,b=0]") {
		t.Errorf("naive format: %.80s", s)
	}
	if len(strings.Fields(s)) != 1+NaivePoints {
		t.Errorf("naive field count %d", len(strings.Fields(s)))
	}
}

func TestNaiveDistanceScale(t *testing.T) {
	black := imaging.New(20, 20)
	white := imaging.New(20, 20)
	white.Fill(255, 255, 255)
	nb := extractNaiveWith(NewPlanes(black))
	nw := extractNaiveWith(NewPlanes(white))
	d, _ := nb.DistanceTo(nw)
	// 25 points × sqrt(3·255²) ≈ 11041.
	want := 25 * math.Sqrt(3) * 255
	if math.Abs(d-want) > 1 {
		t.Errorf("black-white naive distance %g, want ~%g", d, want)
	}
}

func TestRegionsOnSyntheticShapes(t *testing.T) {
	// Big white canvas with two large dark blobs → at least 3 regions,
	// 2+ major.
	im := imaging.New(120, 120)
	im.Fill(240, 240, 240)
	for y := 20; y < 55; y++ {
		for x := 20; x < 55; x++ {
			im.Set(x, y, 10, 10, 10)
		}
	}
	for y := 70; y < 105; y++ {
		for x := 70; x < 105; x++ {
			im.Set(x, y, 10, 10, 10)
		}
	}
	r := extractRegionsWith(NewPlanes(im))
	if r.Regions < 3 {
		t.Errorf("regions = %d, want >= 3", r.Regions)
	}
	if r.Major < 2 {
		t.Errorf("major = %d, want >= 2", r.Major)
	}
	if r.Holes < 1 {
		t.Errorf("holes = %d, want >= 1", r.Holes)
	}
	if r.Major > r.Regions || r.Holes > r.Regions {
		t.Errorf("inconsistent counts: %+v", r)
	}
}

// Region labels partition the raster: counts are internally consistent
// across random binary images.
func TestRegionsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := imaging.NewGray(40, 40)
		for i := range g.Pix {
			if rng.Intn(2) == 1 {
				g.Pix[i] = 255
			}
		}
		r := new(runLabeller).regions(g)
		return r.Regions >= 1 && r.Holes >= 0 && r.Holes <= r.Regions && r.Major <= r.Regions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
