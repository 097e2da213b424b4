package features

import (
	"math"
	"math/rand"
	"testing"

	"cbvr/internal/imaging"
)

// glcmFloatMatrix is the GLCM pass as it was before the co-occurrence
// matrix moved into frameScratch as integer counts: a fresh float matrix
// of row slices, normalised in place, then the same three passes.
func glcmFloatMatrix(g *imaging.Gray) *GLCM {
	w, h := g.W, g.H
	glcm := make([][]float64, glcmSize)
	for i := range glcm {
		glcm[i] = make([]float64, glcmSize)
	}
	var pixelCounter float64
	for y := 0; y < h; y++ {
		for x := 0; x+glcmStep < w; x++ {
			a, b := int(g.Pix[y*w+x]), int(g.Pix[y*w+x+glcmStep])
			glcm[a][b]++
			glcm[b][a]++
			pixelCounter += 2
		}
	}
	out := &GLCM{PixelCounter: pixelCounter}
	if pixelCounter == 0 {
		return out
	}
	for a := range glcm {
		for b := range glcm[a] {
			glcm[a][b] /= pixelCounter
		}
	}
	var px, py float64
	for a := range glcm {
		for b, p := range glcm[a] {
			if p == 0 {
				continue
			}
			out.ASM += p * p
			d := float64(a - b)
			out.Contrast += d * d * p
			out.IDM += p / (1 + d*d)
			out.Entropy -= p * math.Log(p)
			px += float64(a) * p
			py += float64(b) * p
		}
	}
	var varx, vary float64
	for a := range glcm {
		for b, p := range glcm[a] {
			if p == 0 {
				continue
			}
			varx += (float64(a) - px) * (float64(a) - px) * p
			vary += (float64(b) - py) * (float64(b) - py) * p
		}
	}
	if varx > 0 && vary > 0 {
		for a := range glcm {
			for b, p := range glcm[a] {
				if p == 0 {
					continue
				}
				out.Correlation += (float64(a) - px) * (float64(b) - py) * p / (varx * vary)
			}
		}
	}
	return out
}

// TestGLCMCountsMatchFloatMatrix pins the pooled integer-count GLCM to the
// float matrix it replaced, field for field, and — by running a busy frame
// before a sparse one through the same pooled matrix — that no count
// survives from one frame into the next.
func TestGLCMCountsMatchFloatMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	noise := &imaging.Gray{W: 90, H: 70, Pix: make([]uint8, 90*70)}
	rng.Read(noise.Pix)
	planes := []*imaging.Gray{
		noise,
		{W: 1, H: 1, Pix: []uint8{200}}, // no pair at all
		{W: 2, H: 1, Pix: []uint8{255, 255}},
		{W: 4, H: 2, Pix: []uint8{0, 255, 0, 255, 7, 7, 7, 9}},
	}
	for _, im := range equivalenceFrames() {
		planes = append(planes, NewPlanes(im).Gray)
	}
	for i, g := range planes {
		if got, want := *glcmFromGray(g), *glcmFloatMatrix(g); got != want {
			t.Errorf("plane %d (%dx%d): counts give %+v, float matrix %+v", i, g.W, g.H, got, want)
		}
	}
}
