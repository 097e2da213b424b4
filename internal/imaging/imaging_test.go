package imaging

import (
	"bytes"
	"image"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomImage(rng *rand.Rand, w, h int) *Image {
	im := New(w, h)
	rng.Read(im.Pix)
	return im
}

func TestNewAndSetGet(t *testing.T) {
	im := New(4, 3)
	if im.W != 4 || im.H != 3 || len(im.Pix) != 36 {
		t.Fatalf("bad dimensions: %dx%d len %d", im.W, im.H, len(im.Pix))
	}
	im.Set(2, 1, 10, 20, 30)
	r, g, b := im.At(2, 1)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("At = %d,%d,%d", r, g, b)
	}
	if !im.In(3, 2) || im.In(4, 0) || im.In(0, 3) || im.In(-1, 0) {
		t.Error("In() bounds wrong")
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(-1, 5)
}

func TestCloneAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomImage(rng, 8, 8)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Pix[0] ^= 0xff
	if a.Equal(b) {
		t.Error("mutated clone still equal")
	}
	if a.Equal(New(8, 9)) {
		t.Error("different dims equal")
	}
}

func TestJPEGRoundTripApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := New(32, 24)
	// Smooth content so JPEG error stays small.
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			src.Set(x, y, uint8(x*8), uint8(y*10), 128)
		}
	}
	_ = rng
	var buf bytes.Buffer
	if err := src.EncodeJPEG(&buf, 95); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJPEG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != src.W || got.H != src.H {
		t.Fatalf("dims changed: %dx%d", got.W, got.H)
	}
	var worst int
	for i := range src.Pix {
		d := int(src.Pix[i]) - int(got.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 24 {
		t.Errorf("JPEG round trip error too large: %d", worst)
	}
}

func TestEncodeEmptyImageFails(t *testing.T) {
	var buf bytes.Buffer
	if err := New(0, 0).EncodeJPEG(&buf, 80); err == nil {
		t.Error("empty encode should fail")
	}
}

func TestFromImageRGBAAndYCbCr(t *testing.T) {
	rgba := image.NewRGBA(image.Rect(0, 0, 5, 4))
	for i := range rgba.Pix {
		rgba.Pix[i] = uint8(i * 7)
	}
	im := FromImage(rgba)
	r, g, b := im.At(1, 1)
	wr, wg, wb, _ := rgba.At(1, 1).RGBA()
	if r != uint8(wr>>8) || g != uint8(wg>>8) || b != uint8(wb>>8) {
		t.Error("RGBA fast path mismatch")
	}
	// YCbCr path (as produced by jpeg decoding).
	ycc := image.NewYCbCr(image.Rect(0, 0, 4, 4), image.YCbCrSubsampleRatio420)
	for i := range ycc.Y {
		ycc.Y[i] = 128
	}
	im2 := FromImage(ycc)
	if im2.W != 4 || im2.H != 4 {
		t.Error("YCbCr conversion dims wrong")
	}
}

func TestGrayConversionWeights(t *testing.T) {
	im := New(1, 1)
	im.Set(0, 0, 255, 0, 0)
	if g := im.ToGray().At(0, 0); g != 76 { // 0.299*255 ≈ 76
		t.Errorf("red luma = %d, want 76", g)
	}
	im.Set(0, 0, 0, 255, 0)
	if g := im.ToGray().At(0, 0); g != 150 { // 0.587*255 ≈ 150
		t.Errorf("green luma = %d, want 150", g)
	}
	im.Set(0, 0, 0, 0, 255)
	if g := im.ToGray().At(0, 0); g != 29 { // 0.114*255 ≈ 29
		t.Errorf("blue luma = %d, want 29", g)
	}
}

// HSV round trip property: converting RGB→HSV→RGB returns close to the
// original (quantisation allows ±2 per channel).
func TestHSVRoundTripProperty(t *testing.T) {
	f := func(r, g, b uint8) bool {
		h, s, v := RGBToHSV(r, g, b)
		if h < 0 || h >= 360 || s < 0 || s > 1 || v < 0 || v > 1 {
			return false
		}
		rr, gg, bb := HSVToRGB(h, s, v)
		near := func(a, b uint8) bool {
			d := int(a) - int(b)
			return d >= -2 && d <= 2
		}
		return near(r, rr) && near(g, gg) && near(b, bb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRescaleDimensionsAndContent(t *testing.T) {
	src := New(10, 10)
	src.Fill(50, 100, 150)
	dst := src.Rescale(3, 7)
	if dst.W != 3 || dst.H != 7 {
		t.Fatalf("dims %dx%d", dst.W, dst.H)
	}
	r, g, b := dst.At(1, 3)
	if r != 50 || g != 100 || b != 150 {
		t.Error("uniform image changed under rescale")
	}
	// Upscale preserves corners approximately (nearest).
	src.Set(0, 0, 1, 2, 3)
	up := src.Rescale(20, 20)
	r, _, _ = up.At(0, 0)
	if r != 1 {
		t.Error("corner pixel lost on upscale")
	}
}

// Histogram mass property: bins always sum to the pixel count.
func TestHistogramMassProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		im := randomImage(rng, w, h)
		hist := im.GrayHistogram()
		sum := 0
		for _, c := range hist {
			sum += c
		}
		return sum == w*h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGrayMean(t *testing.T) {
	g := NewGray(2, 2)
	copy(g.Pix, []uint8{0, 100, 100, 200})
	if m := g.Mean(); m != 100 {
		t.Errorf("mean = %v", m)
	}
	if m := NewGray(0, 0).Mean(); m != 0 {
		t.Errorf("empty mean = %v", m)
	}
}

func TestHuangThresholdSeparatesBimodal(t *testing.T) {
	var hist [256]int
	// Two clear modes at 40 and 200.
	for i := 30; i < 50; i++ {
		hist[i] = 100
	}
	for i := 190; i < 210; i++ {
		hist[i] = 100
	}
	th := HuangThreshold(hist)
	// Pixels <= th are background, so any th in [49, 189] cleanly
	// separates the 30–49 mode from the 190–209 mode.
	if th < 49 || th > 189 {
		t.Errorf("threshold %d does not separate modes", th)
	}
}

func TestHuangThresholdEdgeCases(t *testing.T) {
	var empty [256]int
	if th := HuangThreshold(empty); th != 0 {
		t.Errorf("empty histogram threshold = %d", th)
	}
	var single [256]int
	single[77] = 10
	if th := HuangThreshold(single); th != 77 {
		t.Errorf("single-bin threshold = %d", th)
	}
}

func TestToRGBAAndBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	im := randomImage(rng, 6, 5)
	back := FromImage(im.ToRGBA())
	if !im.Equal(back) {
		t.Error("ToRGBA/FromImage not lossless")
	}
}
