package features

import (
	"bytes"
	"image/jpeg"
	"testing"

	"cbvr/internal/imaging"
)

// averageAroundOracle is the paper's averageAround written out over the
// 300×300 nearest-neighbour raster: the mean RGB over the window of
// half-side sampleSize centred at (px, py), clipped to the raster. It is
// the definition NaiveOf must reproduce without building the raster.
func averageAroundOracle(scaled *imaging.Image, px, py float64) [3]uint8 {
	var accum [3]int
	numPixels := 0
	cx, cy := px*naiveBaseSize, py*naiveBaseSize
	for y := int(cy) - naiveSampleSize; y < int(cy)+naiveSampleSize; y++ {
		for x := int(cx) - naiveSampleSize; x < int(cx)+naiveSampleSize; x++ {
			if x < 0 || y < 0 || x >= scaled.W || y >= scaled.H {
				continue
			}
			r, g, b := scaled.At(x, y)
			accum[0] += int(r)
			accum[1] += int(g)
			accum[2] += int(b)
			numPixels++
		}
	}
	if numPixels == 0 {
		return [3]uint8{}
	}
	return [3]uint8{uint8(accum[0] / numPixels), uint8(accum[1] / numPixels), uint8(accum[2] / numPixels)}
}

func naiveOracle(im *imaging.Image) NaiveSignature {
	scaled := im.Rescale(naiveBaseSize, naiveBaseSize)
	var out NaiveSignature
	for gy := 0; gy < naiveGrid; gy++ {
		for gx := 0; gx < naiveGrid; gx++ {
			out.Sig[gy*naiveGrid+gx] = averageAroundOracle(scaled, 0.1+0.2*float64(gx), 0.1+0.2*float64(gy))
		}
	}
	return out
}

// TestNaiveOfMatchesWindowAverage holds the separable window sums to the
// paper's averageAround on the rescaled raster, for up-, down- and
// identity scales, odd and degenerate sizes — from RGB frames and from
// the Y'CbCr planes of their JPEG encodings — and through ExtractNaive.
func TestNaiveOfMatchesWindowAverage(t *testing.T) {
	sizes := [][2]int{{0, 0}, {1, 1}, {7, 5}, {29, 31}, {96, 72}, {160, 120}, {161, 119}, {300, 300}, {301, 299}, {640, 480}, {2000, 3}, {3, 700}}
	for i, s := range sizes {
		im := randomFrame(int64(40+i), s[0], s[1])
		want := naiveOracle(im)
		if got := NaiveOf(im.Source()); got != want {
			t.Errorf("%dx%d: NaiveOf %s, window average %s", s[0], s[1], &got, &want)
		}
		if got := ExtractNaive(im); *got != want {
			t.Errorf("%dx%d: ExtractNaive %s, window average %s", s[0], s[1], got, &want)
		}
		if s[0] == 0 {
			continue
		}
		var buf bytes.Buffer
		if err := jpeg.Encode(&buf, im.ToRGBA(), nil); err != nil {
			t.Fatal(err)
		}
		src, err := imaging.DecodeJPEGSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := NaiveOf(src), naiveOracle(src.Image()); got != want {
			t.Errorf("%dx%d JPEG: NaiveOf on planes %s, window average %s", s[0], s[1], &got, &want)
		}
	}
}

// TestNaiveDistanceMatchesDistanceTo pins the interface-free Distance
// selection uses to DistanceTo, bit for bit.
func TestNaiveDistanceMatchesDistanceTo(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b := ExtractNaive(randomFrame(int64(i), 50, 40)), ExtractNaive(randomFrame(int64(i+100), 40, 50))
		if d, _ := a.DistanceTo(b); d != a.Distance(b) {
			t.Fatalf("pair %d: Distance %v, DistanceTo %v", i, a.Distance(b), d)
		}
	}
}

// BenchmarkNaiveOf is §4.1 selection's per-frame signature, from the
// planes of a decoded benchmark-sized (160×120) frame.
func BenchmarkNaiveOf(b *testing.B) {
	var buf bytes.Buffer
	if err := structuredFrame(1).Rescale(160, 120).EncodeJPEG(&buf, 0); err != nil {
		b.Fatal(err)
	}
	src, err := imaging.DecodeJPEGSource(&buf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NaiveOf(src)
	}
}
