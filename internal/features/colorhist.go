package features

import (
	"fmt"
	"strconv"
	"strings"

	"cbvr/internal/imaging"
)

// HistogramBins is the number of quantised RGB bins in the simple colour
// histogram. The paper's sample output begins "RGB 256 …", i.e. 256 bins
// over the joint RGB cube (8 levels of red × 8 of green × 4 of blue).
const HistogramBins = 256

// ColorHistogram is the paper's SimpleColorHistogram (§4.5): a 256-bin
// quantised RGB histogram over the 300×300 analysis raster.
type ColorHistogram struct {
	Bins [HistogramBins]int
}

// extractColorHistogramWith computes the histogram from shared analysis
// planes.
func extractColorHistogramWith(p *Planes) *ColorHistogram {
	return colorHistogramOf(p.Analysis)
}

func colorHistogramOf(a *imaging.Image) *ColorHistogram {
	h := &ColorHistogram{}
	for i := 0; i < len(a.Pix); i += 3 {
		h.Bins[QuantizeRGB(a.Pix[i], a.Pix[i+1], a.Pix[i+2])]++
	}
	return h
}

// QuantizeRGB maps an RGB pixel to one of the 256 histogram bins:
// 3 bits of red, 3 bits of green, 2 bits of blue.
func QuantizeRGB(r, g, b uint8) int {
	return int(r>>5)<<5 | int(g>>5)<<2 | int(b>>6)
}

// Kind implements Descriptor.
func (h *ColorHistogram) Kind() Kind { return KindHistogram }

// Total returns the number of counted pixels (the analysis raster area).
func (h *ColorHistogram) Total() int {
	t := 0
	for _, c := range h.Bins {
		t += c
	}
	return t
}

// String renders the paper's format: "RGB 256 <count0> <count1> …".
func (h *ColorHistogram) String() string {
	var sb strings.Builder
	sb.Grow(HistogramBins * 4)
	sb.WriteString("RGB ")
	sb.WriteString(strconv.Itoa(HistogramBins))
	for _, c := range h.Bins {
		sb.WriteByte(' ')
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// ParseColorHistogram reconstructs a histogram from its String form.
func ParseColorHistogram(s string) (*ColorHistogram, error) {
	fields, err := fieldsAfterPrefix(s, "RGB")
	if err != nil {
		return nil, err
	}
	if len(fields) != HistogramBins+1 {
		return nil, fmt.Errorf("features: histogram wants %d fields, got %d", HistogramBins+1, len(fields))
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n != HistogramBins {
		return nil, fmt.Errorf("features: histogram bin count %q", fields[0])
	}
	h := &ColorHistogram{}
	for i, f := range fields[1:] {
		c, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("features: histogram bin %d: %w", i, err)
		}
		if c < 0 {
			return nil, fmt.Errorf("features: histogram bin %d negative", i)
		}
		h.Bins[i] = c
	}
	return h, nil
}

// DistanceTo returns the normalised L1 distance between two histograms
// (a value in [0, 2] for histograms of equal mass, 0 for identical ones).
func (h *ColorHistogram) DistanceTo(other Descriptor) (float64, error) {
	o, ok := other.(*ColorHistogram)
	if !ok {
		return 0, kindMismatch(KindHistogram, other)
	}
	ta, tb := h.Total(), o.Total()
	if ta == 0 || tb == 0 {
		if ta == tb {
			return 0, nil
		}
		return 2, nil
	}
	var d float64
	for i := range h.Bins {
		pa := float64(h.Bins[i]) / float64(ta)
		pb := float64(o.Bins[i]) / float64(tb)
		if pa > pb {
			d += pa - pb
		} else {
			d += pb - pa
		}
	}
	return d, nil
}

// AppendTo implements Descriptor. Packed layout (stride 257): the total
// pixel mass, then the 256 bin probabilities (bin/total, all zero for an
// empty histogram). The probabilities are the exact divisions DistanceTo
// performs per call, so the batched L1 kernel reproduces it bit for bit;
// the leading mass element carries the degenerate empty-histogram rule.
func (h *ColorHistogram) AppendTo(dst []float64) []float64 {
	t := h.Total()
	dst = append(dst, float64(t))
	if t == 0 {
		for range h.Bins {
			dst = append(dst, 0)
		}
		return dst
	}
	ft := float64(t)
	for _, c := range h.Bins {
		dst = append(dst, float64(c)/ft)
	}
	return dst
}
