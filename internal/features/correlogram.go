package features

import (
	"fmt"
	"math/bits"
	"strings"

	"cbvr/internal/imaging"
)

// Auto colour correlogram geometry (§4.7). The paper's sample output is
// "ACC 4 …" — maxDistance 4 — followed by per-colour groups of 4 values.
const (
	// CorrelogramBins quantises HSV into 16 hue × 2 saturation × 2 value
	// cells.
	CorrelogramBins = 64
	// CorrelogramMaxDistance is the largest Chebyshev ring radius.
	CorrelogramMaxDistance = 4
)

// Correlogram is the §4.7 auto colour correlogram: for each quantised
// colour c and distance d, the max-normalised count of same-colour pixels
// on the Chebyshev ring of radius d (the pseudo-code's normalisation
// divides by the per-distance maximum over colours, not by a probability
// denominator — we keep that faithfully).
type Correlogram struct {
	Cor [CorrelogramBins][CorrelogramMaxDistance]float64
}

// QuantizeHSV maps an RGB pixel into one of the 64 HSV cells.
func QuantizeHSV(r, g, b uint8) int {
	h, s, v := imaging.RGBToHSV(r, g, b)
	hb := int(h / 360 * 16)
	if hb > 15 {
		hb = 15
	}
	sb := 0
	if s >= 0.5 {
		sb = 1
	}
	vb := 0
	if v >= 0.5 {
		vb = 1
	}
	return hb<<2 | sb<<1 | vb
}

// extractCorrelogramWith computes the §4.7 descriptor from shared
// analysis planes, reusing the HSV-quantised plane.
func extractCorrelogramWith(p *Planes) *Correlogram {
	return correlogramFromQuant(p.Quant, p.Analysis.W, p.Analysis.H)
}

// normalizeCorrelogram applies the paper's normalisation: divide by the
// per-distance maximum across colours. Raw counts are integers well below
// 2^53, so float conversion is exact and the result does not depend on the
// order the counts were accumulated in.
func normalizeCorrelogram(raw *[CorrelogramBins][CorrelogramMaxDistance]float64) *Correlogram {
	out := &Correlogram{}
	for d := 0; d < CorrelogramMaxDistance; d++ {
		var max float64
		for c := 0; c < CorrelogramBins; c++ {
			if raw[c][d] > max {
				max = raw[c][d]
			}
		}
		if max == 0 {
			continue
		}
		for c := 0; c < CorrelogramBins; c++ {
			out.Cor[c][d] = raw[c][d] / max
		}
	}
	return out
}

// corrBits is the bitset correlogram's scratch, kept in frameScratch.
type corrBits struct {
	// row[c·nw : (c+1)·nw] is the bitmask of the current row's pixels of
	// colour c: ⌈w/64⌉ words, bit x&63 of word x>>6, then one zero pad
	// word so a right shift can always read the word above. All zero
	// between rows.
	row []uint64
	// ring keeps, per colour, the masks of the last corrRing rows, each
	// shifted right by 0…CorrelogramMaxDistance (pad word dropped):
	// ring[((c·corrRing+y%corrRing)·corrRing+s)·(nw-1) : …].
	ring []uint64
}

// corrRing is the number of rows (and of shifts, 0 included) the ring
// keeps: a row pairs with the CorrelogramMaxDistance rows above it.
const corrRing = CorrelogramMaxDistance + 1

// correlogramFromQuant computes the auto correlogram from a quantised
// plane: correlogramCounts' integers normalised exactly like the
// reference's, so the output is bit-identical to the per-pixel ring walk,
// ExtractCorrelogramReference (correlogram_test.go).
func correlogramFromQuant(quant []uint8, w, h int) *Correlogram {
	raw := correlogramCounts(quant, w, h)
	return normalizeCorrelogram(&raw)
}

// correlogramCounts returns, per colour c and distance d (index d-1), the
// sum over c's pixels of the same-colour pixels on their Chebyshev ring of
// radius d — the number of ordered colour-c pixel pairs exactly d apart,
// which is twice the count over the half plane of offsets (dx, dy) with
// dy > 0, or dy = 0 and dx > 0, max(|dx|, dy) = d. With each row of a
// colour as a bitmask, one offset's count over a whole row is
// popcount(A & B>>dx) for dx ≥ 0 and popcount(B & A>>-dx) for dx < 0, A the
// row and B the row dy below it — so the cost depends on the rows a colour
// occupies, not on its pixel count, and the working set is the ring.
func correlogramCounts(quant []uint8, w, h int) (raw [CorrelogramBins][CorrelogramMaxDistance]float64) {
	sc := frameScratchPool.Get().(*frameScratch)
	defer frameScratchPool.Put(sc)
	b := &sc.corr
	nw := (w+63)/64 + 1
	b.row = grown(b.row, CorrelogramBins*nw)
	b.ring = grown(b.ring, CorrelogramBins*corrRing*corrRing*(nw-1))
	clear(b.row) // countRow leaves it zero, a panic half-way would not
	// present[y%corrRing] has bit c set when row y has a pixel of colour c.
	var present [corrRing]uint64
	var pairs [CorrelogramBins][CorrelogramMaxDistance]int
	for y := 0; y < h; y++ {
		var colours uint64
		for x, c := range quant[y*w : (y+1)*w] {
			b.row[int(c)*nw+x>>6] |= 1 << (x & 63)
			colours |= 1 << c
		}
		present[y%corrRing] = colours
		for ; colours != 0; colours &= colours - 1 {
			c := bits.TrailingZeros64(colours)
			b.countRow(c, y, nw, &present, &pairs[c])
		}
	}
	for c := range raw {
		for d, n := range pairs[c] {
			raw[c][d] = float64(2 * n) // ordered pairs: (p, q) and (q, p)
		}
	}
	return raw
}

// countRow moves colour c's mask of row y from row into the ring, adds to
// pairs (index d-1) the unordered pairs exactly d apart that row y's
// colour-c pixels form with each other and with those of the rows above,
// and zeroes the mask in row.
//
//cbvrvet:noalloc
func (b *corrBits) countRow(c, y, nw int, present *[corrRing]uint64, pairs *[CorrelogramMaxDistance]int) {
	nr := nw - 1
	slot := corrRing * nr // one row's mask at every shift
	mask := b.row[c*nw : (c+1)*nw]
	slots := b.ring[c*corrRing*slot : (c+1)*corrRing*slot]
	cur := slots[y%corrRing*slot:][:slot]
	copy(cur[:nr], mask)
	for s := 1; s <= CorrelogramMaxDistance; s++ {
		shifted := cur[s*nr : (s+1)*nr]
		n := 0
		for k := range shifted {
			shifted[k] = mask[k]>>s | mask[k+1]<<(64-s)
			n += bits.OnesCount64(mask[k] & shifted[k])
		}
		pairs[s-1] += n // same row, dx = s
	}
	clear(mask)
	for dy := 1; dy <= CorrelogramMaxDistance && dy <= y; dy++ {
		if present[(y-dy)%corrRing]>>c&1 == 0 {
			continue
		}
		up := slots[(y-dy)%corrRing*slot:][:slot]
		n := 0
		for k, m := range cur[:nr] {
			n += bits.OnesCount64(up[k] & m)
		}
		pairs[dy-1] += n // dx = 0
		for s := 1; s <= CorrelogramMaxDistance; s++ {
			upS, curS := up[s*nr:(s+1)*nr], cur[s*nr:(s+1)*nr]
			n := 0
			for k, m := range cur[:nr] {
				n += bits.OnesCount64(up[k]&curS[k]) + bits.OnesCount64(m&upS[k])
			}
			pairs[max(s, dy)-1] += n // dx = +s and dx = -s
		}
	}
}

// Kind implements Descriptor.
func (c *Correlogram) Kind() Kind { return KindCorrelogram }

// String renders the paper's format: "ACC 4 <c0d1> <c0d2> <c0d3> <c0d4>
// <c1d1> …".
func (c *Correlogram) String() string {
	var sb strings.Builder
	sb.Grow(CorrelogramBins * CorrelogramMaxDistance * 12)
	sb.WriteString("ACC 4")
	for b := 0; b < CorrelogramBins; b++ {
		for d := 0; d < CorrelogramMaxDistance; d++ {
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(c.Cor[b][d]))
		}
	}
	return sb.String()
}

// ParseCorrelogram reconstructs a correlogram from its String form.
func ParseCorrelogram(s string) (*Correlogram, error) {
	fields, err := fieldsAfterPrefix(s, "ACC")
	if err != nil {
		return nil, err
	}
	want := CorrelogramBins*CorrelogramMaxDistance + 1
	if len(fields) != want {
		return nil, fmt.Errorf("features: correlogram wants %d fields, got %d", want, len(fields))
	}
	if fields[0] != "4" {
		return nil, fmt.Errorf("features: correlogram distance field %q", fields[0])
	}
	vs, err := parseFloats(KindCorrelogram, fields[1:])
	if err != nil {
		return nil, err
	}
	out := &Correlogram{}
	i := 0
	for b := 0; b < CorrelogramBins; b++ {
		for d := 0; d < CorrelogramMaxDistance; d++ {
			out.Cor[b][d] = vs[i]
			i++
		}
	}
	return out, nil
}

// AppendTo implements Descriptor. Packed layout (stride 256): the cells
// flattened colour-major, distance-minor — DistanceTo's accumulation
// order, so the batched mean-abs-diff kernel sums in the same order.
func (c *Correlogram) AppendTo(dst []float64) []float64 {
	for b := 0; b < CorrelogramBins; b++ {
		dst = append(dst, c.Cor[b][:]...)
	}
	return dst
}

// DistanceTo returns the mean absolute difference across all
// (colour, distance) cells.
func (c *Correlogram) DistanceTo(other Descriptor) (float64, error) {
	o, ok := other.(*Correlogram)
	if !ok {
		return 0, kindMismatch(KindCorrelogram, other)
	}
	var sum float64
	for b := 0; b < CorrelogramBins; b++ {
		for d := 0; d < CorrelogramMaxDistance; d++ {
			diff := c.Cor[b][d] - o.Cor[b][d]
			if diff < 0 {
				diff = -diff
			}
			sum += diff
		}
	}
	return sum / (CorrelogramBins * CorrelogramMaxDistance), nil
}
