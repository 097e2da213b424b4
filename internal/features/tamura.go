package features

import (
	"fmt"
	"math"
	"strings"

	"cbvr/internal/imaging"
)

// Tamura descriptor geometry. The paper's sample output "Tamura 18 …"
// carries 18 values: coarseness, contrast and a 16-bin directionality
// histogram.
const (
	TamuraDirBins   = 16
	TamuraVectorLen = 2 + TamuraDirBins
	// tamuraMaxK is the largest averaging window exponent for coarseness
	// (windows of side 2^k).
	tamuraMaxK = 3
	// tamuraSampleStep subsamples coarseness evaluation points; the
	// published coarseness magnitude (~1.5e4) matches summing 2^k_best
	// over a sampled grid rather than every pixel.
	tamuraSampleStep = 4
	// tamuraDirThreshold is the minimum gradient magnitude for a pixel to
	// vote in the directionality histogram (LIRE uses 12).
	tamuraDirThreshold = 12
)

// Tamura holds the three classic Tamura texture measures: coarseness,
// contrast, and a 16-bin edge-direction histogram.
type Tamura struct {
	Coarseness     float64
	Contrast       float64
	Directionality [TamuraDirBins]float64
}

// extractTamuraWith computes the Tamura texture features over the planes'
// 300×300 gray plane.
func extractTamuraWith(p *Planes) *Tamura {
	return tamuraFromGray(p.Gray)
}

func tamuraFromGray(g *imaging.Gray) *Tamura {
	t := &Tamura{}
	t.Coarseness = tamuraCoarseness(g)
	t.Contrast = tamuraContrast(g)
	t.Directionality = tamuraDirectionality(g)
	return t
}

// integralImage fills ii with the summed-area table of g, one extra row and
// column of zeros first so rectangle sums are O(1), and returns it resized
// to (w+1)×(h+1). Entries wrap modulo 2³² on rasters beyond 16 M pixels;
// rectMean's differences are exact as long as one rectangle's sum fits,
// and its rectangles are at most 8×8.
func integralImage(g *imaging.Gray, ii []uint32) []uint32 {
	w, h := g.W, g.H
	ii = grown(ii, (w+1)*(h+1))
	clear(ii[:w+1])
	for y := 1; y <= h; y++ {
		var rowSum uint32
		ii[y*(w+1)] = 0
		for x := 1; x <= w; x++ {
			rowSum += uint32(g.Pix[(y-1)*w+x-1])
			ii[y*(w+1)+x] = ii[(y-1)*(w+1)+x] + rowSum
		}
	}
	return ii
}

func rectMean(ii []uint32, w1, x0, y0, x1, y1 int) float64 {
	// Half-open rectangle [x0,x1)×[y0,y1) over the integral image with
	// stride w1 = W+1. The sum is an integer, so the float the division
	// sees is the one float accumulation would have produced.
	area := float64((x1 - x0) * (y1 - y0))
	if area <= 0 {
		return 0
	}
	s := ii[y1*w1+x1] - ii[y0*w1+x1] - ii[y1*w1+x0] + ii[y0*w1+x0]
	return float64(s) / area
}

// tamuraCoarseness implements Tamura's S_best: at each sampled pixel pick
// the window size 2^k maximising the larger of the horizontal/vertical
// mean differences, and sum 2^k_best over the samples.
func tamuraCoarseness(g *imaging.Gray) float64 {
	w, h := g.W, g.H
	sc := frameScratchPool.Get().(*frameScratch)
	defer frameScratchPool.Put(sc)
	sc.integral = integralImage(g, sc.integral)
	ii := sc.integral
	w1 := w + 1
	var total float64
	margin := 1 << tamuraMaxK
	for y := margin; y < h-margin; y += tamuraSampleStep {
		for x := margin; x < w-margin; x += tamuraSampleStep {
			bestK, bestE := 0, -1.0
			for k := 1; k <= tamuraMaxK; k++ {
				half := 1 << (k - 1)
				size := 1 << k
				// Horizontal difference: means of windows left and right
				// of the pixel.
				left := rectMean(ii, w1, x-size, y-half, x, y+half)
				right := rectMean(ii, w1, x, y-half, x+size, y+half)
				eh := math.Abs(left - right)
				top := rectMean(ii, w1, x-half, y-size, x+half, y)
				bottom := rectMean(ii, w1, x-half, y, x+half, y+size)
				ev := math.Abs(top - bottom)
				e := eh
				if ev > e {
					e = ev
				}
				if e > bestE {
					bestE, bestK = e, k
				}
			}
			total += float64(int(1) << bestK)
		}
	}
	return total
}

// tamuraContrast is Tamura's σ / α₄^(1/4) with α₄ the kurtosis.
func tamuraContrast(g *imaging.Gray) float64 {
	n := float64(len(g.Pix))
	if n == 0 {
		return 0
	}
	mean := g.Mean()
	var m2, m4 float64
	for _, v := range g.Pix {
		d := float64(v) - mean
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	alpha4 := m4 / (m2 * m2)
	if alpha4 == 0 {
		return 0
	}
	return math.Sqrt(m2) / math.Pow(alpha4, 0.25)
}

// tamuraDirectionality histograms edge orientations (Prewitt gradients)
// over 16 bins for pixels whose gradient magnitude clears the threshold.
// The gradients are integers (sums of at most six pixels), kept as ints:
// gh is the 3-row sum of column x+1 minus that of column x−1, gv the sum
// over columns x−1…x+1 of the row-below minus row-above difference, both
// slid along the row; only the voters (about one pixel in seven) reach
// Atan2, with the values float arithmetic would have produced.
func tamuraDirectionality(g *imaging.Gray) [TamuraDirBins]float64 {
	var hist [TamuraDirBins]float64
	w, h := g.W, g.H
	if w < 3 {
		return hist
	}
	var votes [TamuraDirBins]int
	for y := 1; y < h-1; y++ {
		up, mid, down := g.Pix[(y-1)*w:y*w], g.Pix[y*w:(y+1)*w], g.Pix[(y+1)*w:(y+2)*w]
		// sum, diff: column sum and down−up difference at x−1, x, x+1.
		sum0, sum1 := int(up[0])+int(mid[0])+int(down[0]), int(up[1])+int(mid[1])+int(down[1])
		diff0, diff1 := int(down[0])-int(up[0]), int(down[1])-int(up[1])
		for x := 1; x < w-1; x++ {
			sum2 := int(up[x+1]) + int(mid[x+1]) + int(down[x+1])
			diff2 := int(down[x+1]) - int(up[x+1])
			gh, gv := sum2-sum0, diff0+diff1+diff2
			sum0, sum1, diff0, diff1 = sum1, sum2, diff1, diff2
			// (|gh|+|gv|)/2 < threshold, without the division.
			if max(gh, -gh)+max(gv, -gv) < 2*tamuraDirThreshold {
				continue
			}
			theta := math.Atan2(float64(gv), float64(gh)) + math.Pi/2 // in [-π/2, 3π/2)
			for theta < 0 {
				theta += math.Pi
			}
			for theta >= math.Pi {
				theta -= math.Pi
			}
			bin := int(theta / math.Pi * TamuraDirBins)
			if bin == TamuraDirBins {
				bin = TamuraDirBins - 1
			}
			votes[bin]++
		}
	}
	for i, n := range votes {
		hist[i] = float64(n)
	}
	return hist
}

// Kind implements Descriptor.
func (t *Tamura) Kind() Kind { return KindTamura }

// String renders the paper's format: "Tamura 18 <coarseness> <contrast>
// <dir0> … <dir15>".
func (t *Tamura) String() string {
	var sb strings.Builder
	sb.WriteString("Tamura 18 ")
	sb.WriteString(formatFloat(t.Coarseness))
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(t.Contrast))
	for _, v := range t.Directionality {
		sb.WriteByte(' ')
		sb.WriteString(formatFloat(v))
	}
	return sb.String()
}

// ParseTamura reconstructs a Tamura descriptor from its String form.
func ParseTamura(s string) (*Tamura, error) {
	fields, err := fieldsAfterPrefix(s, "Tamura")
	if err != nil {
		return nil, err
	}
	if len(fields) != TamuraVectorLen+1 {
		return nil, fmt.Errorf("features: tamura wants %d fields, got %d", TamuraVectorLen+1, len(fields))
	}
	if fields[0] != "18" {
		return nil, fmt.Errorf("features: tamura length field %q", fields[0])
	}
	vs, err := parseFloats(KindTamura, fields[1:])
	if err != nil {
		return nil, err
	}
	t := &Tamura{Coarseness: vs[0], Contrast: vs[1]}
	copy(t.Directionality[:], vs[2:])
	return t, nil
}

// AppendTo implements Descriptor. Packed layout (stride 18): coarseness,
// contrast, then the 16 directionality bins normalised to a distribution
// (zero when the histogram is empty) — the same per-bin divisions, in the
// same order, DistanceTo performs on every call.
func (t *Tamura) AppendTo(dst []float64) []float64 {
	dst = append(dst, t.Coarseness, t.Contrast)
	ta := 0.0
	for i := 0; i < TamuraDirBins; i++ {
		ta += t.Directionality[i]
	}
	for i := 0; i < TamuraDirBins; i++ {
		var p float64
		if ta > 0 {
			p = t.Directionality[i] / ta
		}
		dst = append(dst, p)
	}
	return dst
}

// DistanceTo compares descriptors with scaled components: coarseness and
// contrast are brought to unit-ish magnitude and the directionality
// histograms are compared as distributions (L1).
func (t *Tamura) DistanceTo(other Descriptor) (float64, error) {
	o, ok := other.(*Tamura)
	if !ok {
		return 0, kindMismatch(KindTamura, other)
	}
	const (
		coarseScale   = 20000 // typical coarseness magnitude on 300×300
		contrastScale = 128
	)
	dc := (t.Coarseness - o.Coarseness) / coarseScale
	dk := (t.Contrast - o.Contrast) / contrastScale
	sum := dc*dc + dk*dk

	ta, tb := 0.0, 0.0
	for i := 0; i < TamuraDirBins; i++ {
		ta += t.Directionality[i]
		tb += o.Directionality[i]
	}
	var dl1 float64
	for i := 0; i < TamuraDirBins; i++ {
		var pa, pb float64
		if ta > 0 {
			pa = t.Directionality[i] / ta
		}
		if tb > 0 {
			pb = o.Directionality[i] / tb
		}
		dl1 += math.Abs(pa - pb)
	}
	return math.Sqrt(sum) + dl1/2, nil
}
