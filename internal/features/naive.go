package features

import (
	"fmt"
	"image"
	"math"
	"strconv"
	"strings"

	"cbvr/internal/imaging"
)

// Superficial (naive) signature geometry (§4.6): 25 representative
// locations on a 5×5 grid over the image rescaled to 300×300; each
// location's value is the mean colour of the surrounding window.
const (
	NaivePoints = 25
	naiveGrid   = 5
	// naiveBaseSize is the rescale target ("float scaleW = 300").
	naiveBaseSize = 300
	// naiveSampleSize is the window half-side ("sampleSize = 15").
	naiveSampleSize = 15
)

// NaiveSignature is the §4.6 descriptor: 25 mean RGB samples. Its distance
// is the quantity the key-frame extractor (§4.1) thresholds at 800.
type NaiveSignature struct {
	Sig [NaivePoints][3]uint8
}

// extractNaiveWith computes the signature from shared analysis planes.
// The analysis raster and the paper's naive rescale target are both
// 300×300 nearest-neighbour, so sampling the shared plane is
// bit-identical to a dedicated rescale.
func extractNaiveWith(p *Planes) *NaiveSignature {
	sig := NaiveOf(p.Analysis.Source())
	return &sig
}

// NaiveOf computes the §4.6 signature of a decoded frame without building
// its 300×300 raster. The paper's averageAround takes the mean RGB over
// the window of half-side sampleSize centred at each grid point of the
// nearest-neighbour rescale; imaging.Source.WindowSum gives each window's
// integer sum on that rescale straight from the source pixels, so the
// means, and the signature, are bit-identical to sampling the raster.
// This is what §4.1 selection runs on every frame of a video, and it
// allocates nothing.
func NaiveOf(src imaging.Source) NaiveSignature {
	var out NaiveSignature
	raster := image.Rect(0, 0, naiveBaseSize, naiveBaseSize)
	i := 0
	for gy := 0; gy < naiveGrid; gy++ {
		cy := int((0.1 + 0.2*float64(gy)) * naiveBaseSize)
		for gx := 0; gx < naiveGrid; gx++ {
			cx := int((0.1 + 0.2*float64(gx)) * naiveBaseSize)
			win := image.Rect(cx-naiveSampleSize, cy-naiveSampleSize, cx+naiveSampleSize, cy+naiveSampleSize).Intersect(raster)
			if n := win.Dx() * win.Dy(); n > 0 {
				sum := src.WindowSum(naiveBaseSize, naiveBaseSize, win)
				out.Sig[i] = [3]uint8{uint8(sum[0] / n), uint8(sum[1] / n), uint8(sum[2] / n)}
			}
			i++
		}
	}
	return out
}

// Kind implements Descriptor.
func (n *NaiveSignature) Kind() Kind { return KindNaive }

// String renders the paper's exact format, including the Java Color
// rendering visible in Fig. 8:
// "NaiveVector java.awt.Color[r=0,g=0,b=0] …".
func (n *NaiveSignature) String() string {
	var sb strings.Builder
	sb.Grow(NaivePoints * 32)
	sb.WriteString("NaiveVector")
	for _, c := range n.Sig {
		fmt.Fprintf(&sb, " java.awt.Color[r=%d,g=%d,b=%d]", c[0], c[1], c[2])
	}
	return sb.String()
}

// ParseNaive reconstructs a signature from its String form.
func ParseNaive(s string) (*NaiveSignature, error) {
	fields, err := fieldsAfterPrefix(s, "NaiveVector")
	if err != nil {
		return nil, err
	}
	if len(fields) != NaivePoints {
		return nil, fmt.Errorf("features: naive wants %d colours, got %d", NaivePoints, len(fields))
	}
	out := &NaiveSignature{}
	for i, f := range fields {
		const pre = "java.awt.Color["
		if !strings.HasPrefix(f, pre) || !strings.HasSuffix(f, "]") {
			return nil, fmt.Errorf("features: naive colour %d malformed: %q", i, f)
		}
		body := f[len(pre) : len(f)-1]
		parts := strings.Split(body, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("features: naive colour %d malformed: %q", i, f)
		}
		for j, name := range [3]string{"r=", "g=", "b="} {
			if !strings.HasPrefix(parts[j], name) {
				return nil, fmt.Errorf("features: naive colour %d malformed: %q", i, f)
			}
			v, err := strconv.Atoi(parts[j][2:])
			if err != nil || v < 0 || v > 255 {
				return nil, fmt.Errorf("features: naive colour %d channel %q", i, parts[j])
			}
			out.Sig[i][j] = uint8(v)
		}
	}
	return out, nil
}

// AppendTo implements Descriptor. Packed layout (stride 75): the 25
// sample points' RGB channels widened to float64 in sample order — the
// conversions DistanceTo performs per comparison, hoisted to pack time.
func (n *NaiveSignature) AppendTo(dst []float64) []float64 {
	for _, c := range n.Sig {
		dst = append(dst, float64(c[0]), float64(c[1]), float64(c[2]))
	}
	return dst
}

// DistanceTo returns the sum over the 25 sample points of the Euclidean
// RGB distance — the §4.1 key-frame criterion compares this sum against
// the threshold 800.
func (n *NaiveSignature) DistanceTo(other Descriptor) (float64, error) {
	o, ok := other.(*NaiveSignature)
	if !ok {
		return 0, kindMismatch(KindNaive, other)
	}
	return n.Distance(o), nil
}

// Distance is DistanceTo between two signatures, without the interface:
// §4.1 selection compares every frame's signature, held on its stack,
// with the current key frame's.
func (n *NaiveSignature) Distance(o *NaiveSignature) float64 {
	var sum float64
	for i := range n.Sig {
		var sq float64
		for c := 0; c < 3; c++ {
			d := float64(n.Sig[i][c]) - float64(o.Sig[i][c])
			sq += d * d
		}
		sum += math.Sqrt(sq)
	}
	return sum
}
