package imaging

import (
	"bytes"
	"testing"
)

func patternImage(w, h int, seed uint8) *Image {
	im := New(w, h)
	for i := range im.Pix {
		im.Pix[i] = uint8(i*31) + seed
	}
	return im
}

// TestRescaleIntoMatchesRescale pins RescaleInto to Rescale bit for bit
// across shapes, including up- and down-scaling.
func TestRescaleIntoMatchesRescale(t *testing.T) {
	dims := [][2]int{{1, 1}, {7, 3}, {96, 72}, {300, 300}, {301, 299}, {640, 480}}
	dst := &Image{}
	for _, d := range dims {
		src := patternImage(d[0], d[1], 5)
		want := src.Rescale(300, 300)
		got := src.RescaleInto(dst, 300, 300)
		if got != dst {
			t.Fatalf("%dx%d: RescaleInto did not return dst", d[0], d[1])
		}
		if !got.Equal(want) {
			t.Errorf("%dx%d: RescaleInto diverges from Rescale", d[0], d[1])
		}
	}
}

// TestRescaleIntoReusesBuffer verifies the pooling contract: once dst has
// capacity, further rescales allocate nothing and leak nothing from the
// previous frame.
func TestRescaleIntoReusesBuffer(t *testing.T) {
	dst := &Image{}
	a := patternImage(96, 72, 1)
	b := patternImage(128, 64, 200)
	a.RescaleInto(dst, 300, 300)
	buf := &dst.Pix[0]
	allocs := testing.AllocsPerRun(50, func() {
		b.RescaleInto(dst, 300, 300)
	})
	if allocs != 0 {
		t.Errorf("RescaleInto with warm dst allocated %.1f times per run, want 0", allocs)
	}
	if &dst.Pix[0] != buf {
		t.Error("RescaleInto replaced the destination buffer despite sufficient capacity")
	}
	if want := b.Rescale(300, 300); !dst.Equal(want) {
		t.Error("reused buffer carries stale content")
	}
}

// TestRescaleIntoCountsAsRescale keeps the RescaleCalls invariant tests
// meaningful: a pooled rescale is still one rescale.
func TestRescaleIntoCountsAsRescale(t *testing.T) {
	src := patternImage(64, 48, 9)
	dst := &Image{}
	start := RescaleCalls()
	src.RescaleInto(dst, 300, 300)
	if n := RescaleCalls() - start; n != 1 {
		t.Errorf("RescaleInto counted %d rescales, want 1", n)
	}
}

// TestRescaleIntoEmptySourceClears ensures an empty source zero-fills a
// recycled destination instead of leaving the previous frame behind.
func TestRescaleIntoEmptySourceClears(t *testing.T) {
	dst := &Image{}
	patternImage(32, 32, 77).RescaleInto(dst, 16, 16)
	(&Image{}).RescaleInto(dst, 16, 16)
	for i, px := range dst.Pix {
		if px != 0 {
			t.Fatalf("pixel byte %d = %d after empty-source rescale, want 0", i, px)
		}
	}
}

// rescaleOracle is the nearest-neighbour rescale written out pixel by
// pixel, the definition the column-table RescaleInto must reproduce.
func rescaleOracle(im *Image, w, h int) *Image {
	out := New(w, h)
	if im.W == 0 || im.H == 0 {
		return out
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, b := im.At(x*im.W/w, y*im.H/h)
			out.Set(x, y, r, g, b)
		}
	}
	return out
}

func grayRescaleOracle(g *Gray, w, h int) *Gray {
	out := NewGray(w, h)
	if g.W == 0 || g.H == 0 {
		return out
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Set(x, y, g.At(x*g.W/w, y*g.H/h))
		}
	}
	return out
}

// rescaleShapes are the exactness table's sources and destinations:
// degenerate, odd, the benchmark's frame sizes, the analysis size itself
// (identity), up- and downscales, and a destination wider than the
// stack-held column table.
var (
	rescaleSources = [][2]int{{0, 0}, {1, 1}, {1, 7}, {7, 1}, {7, 5}, {96, 72}, {160, 120}, {161, 119}, {299, 301}, {300, 300}, {640, 480}, {2000, 3}}
	rescaleTargets = [][2]int{{1, 1}, {5, 9}, {64, 64}, {161, 119}, {300, 300}, {600, 450}, {maxStackCols + 37, 2}}
)

// TestRescaleIntoExactness holds the column-table rescale, RGB and gray,
// to the per-pixel definition on every pair of the shape table, through
// one destination that shrinks and grows between calls.
func TestRescaleIntoExactness(t *testing.T) {
	dst, gdst := &Image{}, &Gray{}
	for _, s := range rescaleSources {
		src, gsrc := patternImage(s[0], s[1], 3), patternGray(s[0], s[1], 3)
		for _, d := range rescaleTargets {
			if got := src.RescaleInto(dst, d[0], d[1]); !got.Equal(rescaleOracle(src, d[0], d[1])) {
				t.Errorf("%dx%d → %dx%d: RescaleInto diverges from the per-pixel rescale", s[0], s[1], d[0], d[1])
			}
			want := grayRescaleOracle(gsrc, d[0], d[1])
			if got := gsrc.RescaleInto(gdst, d[0], d[1]); got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
				t.Errorf("%dx%d → %dx%d: gray RescaleInto diverges from the per-pixel rescale", s[0], s[1], d[0], d[1])
			}
		}
	}
}

// BenchmarkRescaleInto is the analysis rescale of a benchmark-sized frame
// (160×120 → 300×300) into a warm destination.
func BenchmarkRescaleInto(b *testing.B) {
	src, dst := patternImage(160, 120, 1), &Image{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.RescaleInto(dst, 300, 300)
	}
}

// BenchmarkGrayRescaleInto is the Gabor extractor's 300×300 → 64×64 gray
// rescale.
func BenchmarkGrayRescaleInto(b *testing.B) {
	src, dst := patternGray(300, 300, 1), &Gray{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.RescaleInto(dst, 64, 64)
	}
}

func patternGray(w, h int, seed uint8) *Gray {
	g := NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(i*31) + seed
	}
	return g
}

// TestGrayRescaleIntoMatchesRescale runs the RescaleInto shape cases over
// the Gray counterpart, at the Gabor raster size and a non-square one,
// through one destination that shrinks and grows between calls.
func TestGrayRescaleIntoMatchesRescale(t *testing.T) {
	dims := [][2]int{{1, 1}, {7, 3}, {96, 72}, {300, 300}, {301, 299}, {640, 480}}
	dst := &Gray{}
	for _, d := range dims {
		src := patternGray(d[0], d[1], 5)
		for _, to := range [][2]int{{64, 64}, {5, 9}, {300, 300}} {
			want := src.Rescale(to[0], to[1])
			got := src.RescaleInto(dst, to[0], to[1])
			if got != dst {
				t.Fatalf("%dx%d: RescaleInto did not return dst", d[0], d[1])
			}
			if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
				t.Errorf("%dx%d → %dx%d: RescaleInto diverges from Rescale", d[0], d[1], to[0], to[1])
			}
		}
	}
}

// TestGrayRescaleIntoReusesBuffer is the pooling contract the Gabor
// extractor relies on: a warm destination allocates nothing, keeps its
// buffer and carries nothing over from the previous frame — and, unlike
// the RGB rescale, a gray rescale is not counted in RescaleCalls.
func TestGrayRescaleIntoReusesBuffer(t *testing.T) {
	dst := &Gray{}
	a := patternGray(96, 72, 1)
	b := patternGray(128, 64, 200)
	a.RescaleInto(dst, 64, 64)
	buf := &dst.Pix[0]
	start := RescaleCalls()
	allocs := testing.AllocsPerRun(50, func() {
		b.RescaleInto(dst, 64, 64)
	})
	if allocs != 0 {
		t.Errorf("RescaleInto with warm dst allocated %.1f times per run, want 0", allocs)
	}
	if n := RescaleCalls() - start; n != 0 {
		t.Errorf("gray RescaleInto counted %d rescales, want 0", n)
	}
	if &dst.Pix[0] != buf {
		t.Error("RescaleInto replaced the destination buffer despite sufficient capacity")
	}
	if want := b.Rescale(64, 64); !bytes.Equal(dst.Pix, want.Pix) {
		t.Error("reused buffer carries stale content")
	}
}

// TestGrayRescaleIntoEmptySourceClears ensures an empty source zero-fills
// a recycled destination instead of leaving the previous frame behind.
func TestGrayRescaleIntoEmptySourceClears(t *testing.T) {
	dst := &Gray{}
	patternGray(32, 32, 77).RescaleInto(dst, 16, 16)
	(&Gray{}).RescaleInto(dst, 16, 16)
	for i, px := range dst.Pix {
		if px != 0 {
			t.Fatalf("pixel %d = %d after empty-source rescale, want 0", i, px)
		}
	}
}
