package features

import (
	"fmt"
	"math"
	"strings"

	"cbvr/internal/imaging"
)

// glcmSize is the co-occurrence matrix side. The paper's pseudo-code
// iterates "while a is not equal to 257", i.e. a 257×257 matrix for 256
// grey levels — one row/column beyond what 8-bit pixels can index. We keep
// the faithful size (the extra row stays zero and does not affect the
// statistics) and note the quirk here.
const glcmSize = 257

// glcmStep is the horizontal co-occurrence offset (pixels[x+step][y]).
const glcmStep = 1

// GLCM holds the §4.3 grey-level co-occurrence texture features. The
// serialised form mirrors the paper's sample: pixelCounter, ASM, contrast,
// correlation, IDM, entropy.
type GLCM struct {
	PixelCounter float64
	ASM          float64
	Contrast     float64
	Correlation  float64
	IDM          float64
	Entropy      float64
}

// extractGLCMWith computes the descriptor over the planes' 300×300 gray
// plane (the paper's published pixelCounter is 180000 = 2·300·300,
// confirming that size).
func extractGLCMWith(p *Planes) *GLCM {
	return glcmFromGray(p.Gray)
}

func glcmFromGray(g *imaging.Gray) *GLCM {
	w, h := g.W, g.H
	sc := frameScratchPool.Get().(*frameScratch)
	defer frameScratchPool.Put(sc)
	// counts[a*glcmSize+b] accumulates symmetric co-occurrence counts; a
	// cell's probability is its count over pixelCounter, divided where it
	// is read — the same division of the same two exact values a float
	// matrix normalised in place would have done once.
	sc.glcm = grown(sc.glcm, glcmSize*glcmSize)
	counts := sc.glcm
	clear(counts)
	var pixelCounter float64
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x+glcmStep < w; x++ {
			a := int(g.Pix[row+x])
			b := int(g.Pix[row+x+glcmStep])
			counts[a*glcmSize+b]++
			counts[b*glcmSize+a]++
			pixelCounter += 2
		}
	}
	out := &GLCM{PixelCounter: pixelCounter}
	if pixelCounter == 0 {
		return out
	}

	// First pass: ASM, contrast, IDM, entropy, and the marginal means.
	var px, py float64
	for a := 0; a < glcmSize; a++ {
		for b := 0; b < glcmSize; b++ {
			n := counts[a*glcmSize+b]
			if n == 0 {
				continue
			}
			p := float64(n) / pixelCounter
			out.ASM += p * p
			d := float64(a - b)
			out.Contrast += d * d * p
			out.IDM += p / (1 + d*d)
			out.Entropy -= p * math.Log(p)
			px += float64(a) * p
			py += float64(b) * p
		}
	}
	// Second pass: standard deviations; third: correlation. This follows
	// the paper's computation (which uses variance accumulators named
	// stdevx/stdevy).
	var varx, vary float64
	for a := 0; a < glcmSize; a++ {
		for b := 0; b < glcmSize; b++ {
			n := counts[a*glcmSize+b]
			if n == 0 {
				continue
			}
			p := float64(n) / pixelCounter
			varx += (float64(a) - px) * (float64(a) - px) * p
			vary += (float64(b) - py) * (float64(b) - py) * p
		}
	}
	if varx > 0 && vary > 0 {
		for a := 0; a < glcmSize; a++ {
			for b := 0; b < glcmSize; b++ {
				n := counts[a*glcmSize+b]
				if n == 0 {
					continue
				}
				p := float64(n) / pixelCounter
				out.Correlation += (float64(a) - px) * (float64(b) - py) * p / (varx * vary)
			}
		}
	}
	return out
}

// Kind implements Descriptor.
func (g *GLCM) Kind() Kind { return KindGLCM }

// vector returns the five texture statistics (pixelCounter excluded — it
// is a size artefact, not a texture property).
func (g *GLCM) vector() [5]float64 {
	return [5]float64{g.ASM, g.Contrast, g.Correlation, g.IDM, g.Entropy}
}

// String renders the paper's sample format: six space-separated numbers
// "pixelCounter ASM contrast correlation IDM entropy".
func (g *GLCM) String() string {
	parts := []string{
		formatFloat(g.PixelCounter),
		formatFloat(g.ASM),
		formatFloat(g.Contrast),
		formatFloat(g.Correlation),
		formatFloat(g.IDM),
		formatFloat(g.Entropy),
	}
	return strings.Join(parts, " ")
}

// ParseGLCM reconstructs a GLCM descriptor from its String form.
func ParseGLCM(s string) (*GLCM, error) {
	fields := strings.Fields(s)
	if len(fields) != 6 {
		return nil, fmt.Errorf("features: glcm wants 6 fields, got %d", len(fields))
	}
	vs, err := parseFloats(KindGLCM, fields)
	if err != nil {
		return nil, err
	}
	return &GLCM{
		PixelCounter: vs[0],
		ASM:          vs[1],
		Contrast:     vs[2],
		Correlation:  vs[3],
		IDM:          vs[4],
		Entropy:      vs[5],
	}, nil
}

// glcmScale normalises each statistic to a comparable magnitude before the
// L2 distance: contrast grows with the square of grey-level differences
// (up to ~255²·p) while ASM/IDM live in [0,1] and entropy in [0, ~11].
var glcmScale = [5]float64{1, 16384, 0.001, 1, 11}

// AppendTo implements Descriptor. Packed layout (stride 5): the raw
// vector() statistics in order. Scaling stays in the kernel — (a-b)/s is
// not bit-equal to a/s - b/s, so the values cannot be pre-divided.
func (g *GLCM) AppendTo(dst []float64) []float64 {
	v := g.vector()
	return append(dst, v[:]...)
}

// DistanceTo returns a scaled L2 distance between the five texture
// statistics.
func (g *GLCM) DistanceTo(other Descriptor) (float64, error) {
	o, ok := other.(*GLCM)
	if !ok {
		return 0, kindMismatch(KindGLCM, other)
	}
	va, vb := g.vector(), o.vector()
	var sum float64
	for i := range va {
		d := (va[i] - vb[i]) / glcmScale[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}
