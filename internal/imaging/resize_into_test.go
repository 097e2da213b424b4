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
