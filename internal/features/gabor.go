package features

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"cbvr/internal/imaging"
)

// Gabor filter-bank geometry (§4.4). The paper's sample output is
// "gabor 60 …": M×N×2 = 60 values for M scales and N orientations with a
// mean and a deviation per filter.
const (
	GaborScales       = 5  // M
	GaborOrientations = 6  // N
	GaborVectorLen    = 60 // M*N*2
	// gaborImageSize is the grayscale analysis raster side for filtering.
	// A filter costs O(W·H·K²) and the faithful layout keeps 18 of the
	// M·N = 30 (gaborLive); 64×64 keeps extraction fast while preserving
	// the texture statistics the descriptor needs.
	gaborImageSize = 64
	// gaborMaxRadius caps kernel radius so coarse scales stay inside the
	// 64×64 raster.
	gaborMaxRadius = 8
)

// Gabor is the §4.4 texture descriptor: the 60-element feature vector in
// the paper's layout.
//
// Faithful quirk: the paper (following the LIRE implementation it ports)
// indexes the vector as featureVector[m*N + n*2] and [m*N + n*2 + 1]
// instead of (m*N + n)*2. Adjacent filters therefore overwrite parts of
// each other's slots and indices 36–59 remain zero — exactly as visible in
// the paper's Fig. 8 sample output, whose tail is all "0.0". We reproduce
// that layout; the corrected layout is a test-side ablation
// (ExtractGaborCorrected in gabor_test.go).
//
// A consequence the extractor exploits: filter (m+1, n−3) writes the same
// two slots as filter (m, n) for n ≥ 3 and writes them later, so only 18
// of the 30 filters ever reach Vec — orientations 0–2 at scales 0–3 and
// all six at scale 4 (gaborLive). The faithful path convolves only those.
type Gabor struct {
	Vec [GaborVectorLen]float64
}

// gaborKernel is one precomputed complex kernel.
type gaborKernel struct {
	radius int
	re, im []float64 // (2r+1)² taps, row-major
	// re2, im2 hold every tap twice in a row — one 16-byte load fills both
	// lanes of the SSE2 row kernel (gabor_amd64.s) with it.
	re2, im2 []float64
}

// gaborFilterSet selects filters of the bank by (scale, orientation).
type gaborFilterSet [GaborScales][GaborOrientations]bool

var (
	gaborBankOnce sync.Once
	gaborBank     [GaborScales][GaborOrientations]gaborKernel
	// gaborLive marks the filters whose statistics survive
	// gaborFaithfulLayout; buildGaborBank fills it.
	gaborLive gaborFilterSet
)

// buildGaborBank precomputes the spatial Gabor kernels: wavelength grows
// geometrically with scale, orientations are evenly spaced over π.
func buildGaborBank() {
	const (
		lambda0 = 2.0
		ratio   = math.Sqrt2
		gamma   = 0.75 // spatial aspect ratio
	)
	for m := 0; m < GaborScales; m++ {
		lambda := lambda0 * math.Pow(ratio, float64(m))
		sigma := 0.56 * lambda
		radius := int(math.Ceil(2.5 * sigma))
		if radius < 2 {
			radius = 2
		}
		if radius > gaborMaxRadius {
			radius = gaborMaxRadius
		}
		for n := 0; n < GaborOrientations; n++ {
			theta := float64(n) * math.Pi / GaborOrientations
			side := 2*radius + 1
			k := gaborKernel{
				radius: radius,
				re:     make([]float64, side*side),
				im:     make([]float64, side*side),
			}
			ct, st := math.Cos(theta), math.Sin(theta)
			var sumRe float64
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					xr := float64(dx)*ct + float64(dy)*st
					yr := -float64(dx)*st + float64(dy)*ct
					env := math.Exp(-(xr*xr + gamma*gamma*yr*yr) / (2 * sigma * sigma))
					phase := 2 * math.Pi * xr / lambda
					i := (dy+radius)*side + dx + radius
					k.re[i] = env * math.Cos(phase)
					k.im[i] = env * math.Sin(phase)
					sumRe += k.re[i]
				}
			}
			// Zero the DC component of the real part so uniform regions
			// produce zero response.
			taps := float64(side * side)
			for i := range k.re {
				k.re[i] -= sumRe / taps
			}
			k.re2, k.im2 = make([]float64, 2*len(k.re)), make([]float64, 2*len(k.im))
			for i := range k.re {
				k.re2[2*i], k.re2[2*i+1] = k.re[i], k.re[i]
				k.im2[2*i], k.im2[2*i+1] = k.im[i], k.im[i]
			}
			gaborBank[m][n] = k
		}
	}
	// Liveness is read off the layout itself: replay its writes in order
	// and keep the last writer of every slot.
	var writer [GaborVectorLen]*bool
	for m := 0; m < GaborScales; m++ {
		for n := 0; n < GaborOrientations; n++ {
			slot := gaborFaithfulSlot(m, n)
			writer[slot], writer[slot+1] = &gaborLive[m][n], &gaborLive[m][n]
		}
	}
	for _, live := range writer {
		if live != nil {
			*live = true
		}
	}
}

// gaborPlanePool recycles the two gaborImageSize² float planes (the
// normalised pixel plane and the per-filter magnitude plane) across
// extractions, so the ingest worker pool does not allocate them per frame.
var gaborPlanePool = sync.Pool{
	New: func() any {
		s := make([]float64, gaborImageSize*gaborImageSize)
		return &s
	},
}

// gaborStats returns the per-filter magnitude means and deviations
// normalised by image size, as in the paper's pseudo-code (which divides
// both the sum of magnitudes and sqrt(sum of squared deviations) by
// imageSize), for the filters in set; the others stay zero. Filters and
// output pixels are independent, and gaborRow accumulates each pixel's
// taps in exactly the reference's order, so the computed statistics are
// bit-identical to gaborStatsReference's (gabor_test.go).
//
// Every product is wrapped in a float64 conversion: the spec lets a
// compiler fuse x*y + z into one rounding (arm64, GOAMD64=v3) unless the
// product is explicitly converted, and a fused build would write
// descriptors that differ in the last bits from every other build's.
func gaborStats(g *imaging.Gray, set *gaborFilterSet) (means, devs [GaborScales][GaborOrientations]float64) {
	gaborBankOnce.Do(buildGaborBank)
	w, h := g.W, g.H
	pixP := gaborPlanePool.Get().(*[]float64)
	magsP := gaborPlanePool.Get().(*[]float64)
	defer gaborPlanePool.Put(pixP)
	defer gaborPlanePool.Put(magsP)
	pix, mags := (*pixP)[:w*h], (*magsP)[:w*h]
	for i, v := range g.Pix {
		pix[i] = float64(v) / 255
	}
	imageSize := float64(w * h)
	var reRow, imRow [gaborImageSize]float64
	for m := 0; m < GaborScales; m++ {
		for n := 0; n < GaborOrientations; n++ {
			if !set[m][n] {
				continue
			}
			k := &gaborBank[m][n]
			r := k.radius
			outs := max(w-2*r, 0) // output pixels per row
			re, im := reRow[:outs], imRow[:outs]
			var sum float64
			count := 0
			for y := r; y < h-r; y++ {
				gaborRow(re, im, pix[(y-r)*w:], w, k)
				for x, a := range re {
					mag := math.Sqrt(float64(a*a) + float64(im[x]*im[x]))
					mags[count] = mag
					sum += mag
					count++
				}
			}
			mean := sum / imageSize
			var sq float64
			for _, v := range mags[:count] {
				d := v - mean
				sq += float64(d * d)
			}
			means[m][n] = mean
			devs[m][n] = math.Sqrt(sq) / imageSize
		}
	}
	return means, devs
}

// gaborRowGo computes one output row of filter k: for each of the len(re)
// outputs, the complex response over the (2r+1)² window whose top-left
// corner is pix[x], taps row-major. It is gaborRow where there is no
// assembly kernel, and the oracle the kernel is tested against.
func gaborRowGo(re, im, pix []float64, stride int, k *gaborKernel) {
	side := 2*k.radius + 1
	for x := range re {
		var sr, si float64
		for ky := 0; ky < side; ky++ {
			row := pix[ky*stride+x:][:side]
			// Reslicing the kernel rows to len(row) lets the compiler
			// drop the bounds checks on the taps.
			kre := k.re[ky*side:][:len(row)]
			kim := k.im[ky*side:][:len(row)]
			for dx, p := range row {
				sr += float64(p * kre[dx])
				si += float64(p * kim[dx])
			}
		}
		re[x], im[x] = sr, si
	}
}

// extractGaborWith computes the §4.4 descriptor with the paper's faithful
// (buggy) vector layout from shared analysis planes, reusing the gray
// plane (only the 300→64 gabor rescale remains per-extractor, into a
// pooled raster).
func extractGaborWith(p *Planes) *Gabor {
	sc := frameScratchPool.Get().(*frameScratch)
	defer frameScratchPool.Put(sc)
	g := p.Gray.RescaleInto(&sc.gaborGray, gaborImageSize, gaborImageSize)
	means, devs := gaborStats(g, &gaborLive)
	return gaborFaithfulLayout(&means, &devs)
}

// gaborFaithfulSlot is the paper's faithful indexing bug: filter (m, n)'s
// mean goes to Vec[m*N + n*2] and its deviation to the slot after, not to
// (m*N+n)*2.
func gaborFaithfulSlot(m, n int) int { return m*GaborOrientations + n*2 }

// gaborFaithfulLayout packs filter statistics through gaborFaithfulSlot
// in (m, n) order, later filters overwriting earlier ones and the tail
// staying zero. Only the statistics of gaborLive filters reach the result.
func gaborFaithfulLayout(means, devs *[GaborScales][GaborOrientations]float64) *Gabor {
	out := &Gabor{}
	for m := 0; m < GaborScales; m++ {
		for n := 0; n < GaborOrientations; n++ {
			slot := gaborFaithfulSlot(m, n)
			out.Vec[slot] = means[m][n]
			out.Vec[slot+1] = devs[m][n]
		}
	}
	return out
}

// Kind implements Descriptor.
func (g *Gabor) Kind() Kind { return KindGabor }

// String renders the paper's format: "gabor 60 <v0> <v1> …".
func (g *Gabor) String() string {
	var sb strings.Builder
	sb.Grow(GaborVectorLen * 20)
	sb.WriteString("gabor 60")
	for _, v := range g.Vec {
		sb.WriteByte(' ')
		sb.WriteString(formatFloat(v))
	}
	return sb.String()
}

// ParseGabor reconstructs a Gabor descriptor from its String form.
func ParseGabor(s string) (*Gabor, error) {
	fields, err := fieldsAfterPrefix(s, "gabor")
	if err != nil {
		return nil, err
	}
	if len(fields) != GaborVectorLen+1 {
		return nil, fmt.Errorf("features: gabor wants %d fields, got %d", GaborVectorLen+1, len(fields))
	}
	if fields[0] != "60" {
		return nil, fmt.Errorf("features: gabor length field %q", fields[0])
	}
	vs, err := parseFloats(KindGabor, fields[1:])
	if err != nil {
		return nil, err
	}
	out := &Gabor{}
	copy(out.Vec[:], vs)
	return out, nil
}

// AppendTo implements Descriptor. Packed layout (stride 60): Vec as is.
func (g *Gabor) AppendTo(dst []float64) []float64 {
	return append(dst, g.Vec[:]...)
}

// DistanceTo returns the L2 distance between the 60-element vectors.
func (g *Gabor) DistanceTo(other Descriptor) (float64, error) {
	o, ok := other.(*Gabor)
	if !ok {
		return 0, kindMismatch(KindGabor, other)
	}
	var sum float64
	for i := range g.Vec {
		d := g.Vec[i] - o.Vec[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}
