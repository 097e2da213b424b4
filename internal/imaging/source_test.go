package imaging

import (
	"bytes"
	"image"
	"image/color"
	"image/jpeg"
	"testing"
)

// yccFrame returns a Y'CbCr image over r with pseudo-random planes.
func yccFrame(r image.Rectangle, ratio image.YCbCrSubsampleRatio, seed uint32) *image.YCbCr {
	m := image.NewYCbCr(r, ratio)
	for _, p := range [][]uint8{m.Y, m.Cb, m.Cr} {
		for i := range p {
			seed = seed*1664525 + 1013904223
			p[i] = uint8(seed >> 24)
		}
	}
	return m
}

// yccCases covers every subsampling ratio the JPEG decoder produces, odd
// widths and heights, a non-zero Rect.Min (a frame and an odd-offset
// sub-image) and a negative Rect.Min.
func yccCases() map[string]*image.YCbCr {
	ratios := map[string]image.YCbCrSubsampleRatio{
		"444": image.YCbCrSubsampleRatio444, "422": image.YCbCrSubsampleRatio422,
		"420": image.YCbCrSubsampleRatio420, "440": image.YCbCrSubsampleRatio440,
		"411": image.YCbCrSubsampleRatio411, "410": image.YCbCrSubsampleRatio410,
	}
	rects := map[string]image.Rectangle{
		"1x1": image.Rect(0, 0, 1, 1), "7x5": image.Rect(0, 0, 7, 5), "16x16": image.Rect(0, 0, 16, 16),
		"161x119": image.Rect(0, 0, 161, 119), "min5,3": image.Rect(5, 3, 30, 20), "min-3,-2": image.Rect(-3, -2, 10, 9),
	}
	out := make(map[string]*image.YCbCr)
	seed := uint32(1)
	for rn, ratio := range ratios {
		for gn, r := range rects {
			seed++
			out[rn+"/"+gn] = yccFrame(r, ratio, seed)
		}
		seed++
		out[rn+"/sub3,1"] = yccFrame(image.Rect(0, 0, 40, 30), ratio, seed).SubImage(image.Rect(3, 1, 20, 14)).(*image.YCbCr)
	}
	return out
}

// TestFromImageYCbCrMatchesYCbCrToRGB holds the row-at-a-time conversion
// to color.YCbCrToRGB of each pixel's own samples (YOffset/COffset).
func TestFromImageYCbCrMatchesYCbCrToRGB(t *testing.T) {
	for name, m := range yccCases() {
		im := FromImage(m)
		b := m.Rect
		if im.W != b.Dx() || im.H != b.Dy() {
			t.Fatalf("%s: %dx%d raster for a %v frame", name, im.W, im.H, b)
		}
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x++ {
				yi, ci := m.YOffset(x, y), m.COffset(x, y)
				wr, wg, wb := color.YCbCrToRGB(m.Y[yi], m.Cb[ci], m.Cr[ci])
				if r, g, bl := im.At(x-b.Min.X, y-b.Min.Y); r != wr || g != wg || bl != wb {
					t.Fatalf("%s: pixel (%d,%d) = %d,%d,%d, want %d,%d,%d", name, x, y, r, g, bl, wr, wg, wb)
				}
			}
		}
	}
}

// rasterWindowSum sums r over a raster, the definition WindowSum matches.
func rasterWindowSum(im *Image, r image.Rectangle) (sum [3]int) {
	r = r.Intersect(image.Rect(0, 0, im.W, im.H))
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			p, q, s := im.At(x, y)
			sum[0] += int(p)
			sum[1] += int(q)
			sum[2] += int(s)
		}
	}
	return sum
}

// TestSourceMatchesFromImage holds a Source over decoder planes, and over
// an RGB raster, to FromImage followed by the RGB rescale: Image,
// RescaleInto at up-, down- and identity scales (one counted rescale
// each), and WindowSum over windows inside, across and outside the raster.
func TestSourceMatchesFromImage(t *testing.T) {
	windows := []image.Rectangle{
		image.Rect(0, 0, 1, 1), image.Rect(15, 15, 45, 45), image.Rect(255, 255, 285, 285),
		image.Rect(-10, 290, 20, 320), image.Rect(2, 3, 297, 7), image.Rect(400, 0, 410, 10),
	}
	dst := &Image{}
	for name, m := range yccCases() {
		rgb := FromImage(m)
		for _, src := range []Source{sourceOf(m), rgb.Source()} {
			if !src.Image().Equal(rgb) {
				t.Fatalf("%s: Source.Image diverges from FromImage", name)
			}
			w, h := m.Rect.Dx(), m.Rect.Dy()
			for _, d := range [][2]int{{300, 300}, {w, h}, {5, 3}, {2 * w, h + 1}} {
				start := RescaleCalls()
				if got := src.RescaleInto(dst, d[0], d[1]); !got.Equal(rgb.Rescale(d[0], d[1])) {
					t.Errorf("%s → %dx%d: Source.RescaleInto diverges from FromImage + RescaleInto", name, d[0], d[1])
				}
				if n := RescaleCalls() - start; n != 2 {
					t.Errorf("%s: Source.RescaleInto + Rescale counted %d rescales, want 2", name, n)
				}
			}
			scaled := rgb.Rescale(300, 300)
			for _, r := range windows {
				if got, want := src.WindowSum(300, 300, r), rasterWindowSum(scaled, r); got != want {
					t.Errorf("%s: WindowSum(%v) = %v, raster sum %v", name, r, got, want)
				}
			}
		}
	}
}

// TestDecodeJPEGSourceConvertsOtherDecoderOutput pins the non-Y'CbCr decoder
// outputs (a grayscale JPEG decodes to *image.Gray) to FromImage.
func TestDecodeJPEGSourceConvertsOtherDecoderOutput(t *testing.T) {
	g := image.NewGray(image.Rect(0, 0, 33, 17))
	for i := range g.Pix {
		g.Pix[i] = uint8(i * 7)
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	src, err := DecodeJPEGSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeJPEG(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if src.RGB() == nil || !src.Image().Equal(want) {
		t.Error("grayscale JPEG source diverges from DecodeJPEG")
	}
	if (Source{}).Image().W != 0 || (Source{}).WindowSum(300, 300, image.Rect(0, 0, 30, 30)) != [3]int{} {
		t.Error("the zero Source is not an empty frame")
	}
}

// TestSourceAllocatesNothing is what lets selection read every frame for
// free: a signature window and a warm raster rebuild allocate nothing.
func TestSourceAllocatesNothing(t *testing.T) {
	src := sourceOf(yccFrame(image.Rect(0, 0, 160, 120), image.YCbCrSubsampleRatio420, 9))
	dst := src.RescaleInto(&Image{}, 300, 300)
	if n := testing.AllocsPerRun(20, func() { src.WindowSum(300, 300, image.Rect(135, 135, 165, 165)) }); n != 0 {
		t.Errorf("WindowSum allocated %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { src.RescaleInto(dst, 300, 300) }); n != 0 {
		t.Errorf("Source.RescaleInto with a warm destination allocated %.1f times per call, want 0", n)
	}
}

// benchFrame is a benchmark-sized (160×120) frame as the JPEG decoder
// returns it: smooth content, 4:2:0 planes.
func benchFrame(b *testing.B) *image.YCbCr {
	im := New(160, 120)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			im.Set(x, y, uint8(x+y), uint8(2*y), uint8(255-x))
		}
	}
	var buf bytes.Buffer
	if err := im.EncodeJPEG(&buf, 0); err != nil {
		b.Fatal(err)
	}
	m, err := jpeg.Decode(&buf)
	if err != nil {
		b.Fatal(err)
	}
	return m.(*image.YCbCr)
}

// BenchmarkFromImage converts a decoded frame to RGB, the conversion
// every query frame pays.
func BenchmarkFromImage(b *testing.B) {
	m := benchFrame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromImage(m)
	}
}

// BenchmarkSourceRescaleInto builds a key frame's analysis raster straight
// from the decoder's planes (160×120 4:2:0 → 300×300).
func BenchmarkSourceRescaleInto(b *testing.B) {
	src, dst := sourceOf(benchFrame(b)), &Image{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.RescaleInto(dst, 300, 300)
	}
}
