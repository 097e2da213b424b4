package features

import (
	"fmt"
	"strconv"

	"cbvr/internal/imaging"
)

// regionMajorFraction defines a "major region": a connected region whose
// pixel count is at least this fraction of the frame area. The paper
// stores only "no. of max regions" without a definition; 1% keeps the
// counts in the small single digits seen in Fig. 8 ("Majorregions : 2").
const regionMajorFraction = 0.01

// RegionStats is the §4.8 simple-region-growing descriptor: the number of
// connected regions, the number of hole (background/zero-valued) regions
// and the number of major regions after the paper's preprocessing chain
// (grayscale → minimum-fuzziness binarisation → dilate/erode/erode/dilate).
type RegionStats struct {
	Regions int
	Holes   int
	Major   int
}

// extractRegionsWith runs the §4.8 pipeline from shared analysis planes,
// reusing the gray plane and its histogram. The shared plane itself is
// never written: binarisation goes into pooled scratch.
func extractRegionsWith(p *Planes) *RegionStats {
	return regionsFromGray(p.Gray, p.GrayHist)
}

// regionsFromGray mirrors the paper's preprocess() on a gray plane
// (grayscale via the 0.114/0.587/0.299 band combine) with histogram
// hist: Huang minimum-fuzziness binarisation, then dilate, erode, erode,
// dilate with the 5×5 (active 3×3) kernel — run in place as separable box
// passes, which produce the identical raster — then region labelling.
func regionsFromGray(g *imaging.Gray, hist [256]int) *RegionStats {
	sc := frameScratchPool.Get().(*frameScratch)
	defer frameScratchPool.Put(sc)
	// g.Binarize(t) into the pooled plane.
	t := imaging.HuangThreshold(hist)
	bin := &sc.bin
	bin.W, bin.H = g.W, g.H
	bin.Pix = append(bin.Pix[:0], g.Pix...)
	for i, v := range bin.Pix {
		if int(v) > t {
			bin.Pix[i] = 255
		} else {
			bin.Pix[i] = 0
		}
	}
	return sc.label.regions(bin.CloseOpenBox3(bin, &sc.boxTmp))
}

// majorRegionMin is the pixel count from which a region of a w×h raster
// is a major region.
func majorRegionMin(w, h int) int {
	if n := int(regionMajorFraction * float64(w*h)); n > 1 {
		return n
	}
	return 1
}

// labelRun is a maximal run of equal-valued pixels [x0, x1) in one row.
type labelRun struct {
	x0, x1 int32
	val    uint8
}

// runLabeller counts the §4.8 regions — 8-connected components of equal
// pixel value — by run-based two-pass labelling: every row is encoded as
// maximal equal-value runs, a run is united (union–find, pixel counts
// carried on the roots) with every same-valued run of the previous row it
// touches, and the surviving roots are the regions. A component's pixel
// set does not depend on how it is discovered, so the three counts equal
// those of the classic stack-based grower (growRegionsStack,
// regiongrow_test.go) exactly, in O(runs) instead of O(9·pixels). The
// slices are reused across frames.
type runLabeller struct {
	runs   []labelRun
	parent []int32 // union–find forest over run indices
	size   []int32 // pixels under a root
}

// regions labels the raster and returns its region counts.
func (l *runLabeller) regions(g *imaging.Gray) *RegionStats {
	w, h := g.W, g.H
	l.runs, l.parent, l.size = l.runs[:0], l.parent[:0], l.size[:0]
	prev := 0 // index of the previous row's first run
	for y := 0; y < h; y++ {
		cur := len(l.runs)
		row := g.Pix[y*w : (y+1)*w]
		for x0 := 0; x0 < w; {
			x1 := x0 + 1
			for x1 < w && row[x1] == row[x0] {
				x1++
			}
			l.parent = append(l.parent, int32(len(l.runs)))
			l.size = append(l.size, int32(x1-x0))
			l.runs = append(l.runs, labelRun{int32(x0), int32(x1), row[x0]})
			x0 = x1
		}
		l.mergeRows(prev, cur)
		prev = cur
	}
	stats := &RegionStats{}
	majorMin := majorRegionMin(w, h)
	for i, p := range l.parent {
		if int(p) != i {
			continue
		}
		stats.Regions++
		if l.runs[i].val == 0 {
			stats.Holes++
		}
		if int(l.size[i]) >= majorMin {
			stats.Major++
		}
	}
	return stats
}

// mergeRows unites each run of the current row (runs[cur:]) with the
// runs of the previous row (runs[prev:cur]) that have its value and
// overlap its span widened by one pixel either side — 8-connectivity.
// Both rows are sorted and disjoint, so one forward sweep pairs them.
//
//cbvrvet:noalloc
func (l *runLabeller) mergeRows(prev, cur int) {
	above := l.runs[prev:cur]
	j := 0
	for i, c := range l.runs[cur:] {
		for j < len(above) && above[j].x1 < c.x0 {
			j++
		}
		for k := j; k < len(above) && above[k].x0 <= c.x1; k++ {
			if above[k].val == c.val {
				l.union(int32(prev+k), int32(cur+i))
			}
		}
	}
}

// find returns the root of run i, halving the path on the way.
func (l *runLabeller) find(i int32) int32 {
	for l.parent[i] != i {
		l.parent[i] = l.parent[l.parent[i]]
		i = l.parent[i]
	}
	return i
}

// union joins the components of runs a and b, smaller under larger.
func (l *runLabeller) union(a, b int32) {
	a, b = l.find(a), l.find(b)
	if a == b {
		return
	}
	if l.size[a] < l.size[b] {
		a, b = b, a
	}
	l.parent[b] = a
	l.size[a] += l.size[b]
}

// Kind implements Descriptor.
func (r *RegionStats) Kind() Kind { return KindRegions }

// String renders "Regions <regions> <holes> <major>". (The KEY_FRAMES
// table stores only MAJORREGIONS as a number; the full triple is kept in
// the descriptor for the distance function. Fig. 8's display form
// "Majorregions : N" is produced by the featuredump example.)
func (r *RegionStats) String() string {
	return "Regions " + strconv.Itoa(r.Regions) + " " + strconv.Itoa(r.Holes) + " " + strconv.Itoa(r.Major)
}

// ParseRegions reconstructs the descriptor from its String form.
func ParseRegions(s string) (*RegionStats, error) {
	fields, err := fieldsAfterPrefix(s, "Regions")
	if err != nil {
		return nil, err
	}
	if len(fields) != 3 {
		return nil, fmt.Errorf("features: regions wants 3 fields, got %d", len(fields))
	}
	var vals [3]int
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("features: regions field %d: %w", i, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("features: regions field %d negative", i)
		}
		vals[i] = v
	}
	return &RegionStats{Regions: vals[0], Holes: vals[1], Major: vals[2]}, nil
}

// AppendTo implements Descriptor. Packed layout (stride 3): major,
// regions, holes as float64s (the counts are far below 2^53, so the
// conversions are exact and the kernel's float |Δ| equals absInt's).
func (r *RegionStats) AppendTo(dst []float64) []float64 {
	return append(dst, float64(r.Major), float64(r.Regions), float64(r.Holes))
}

// DistanceTo compares region structure: major-region count dominates, with
// smaller contributions from the total region and hole counts.
func (r *RegionStats) DistanceTo(other Descriptor) (float64, error) {
	o, ok := other.(*RegionStats)
	if !ok {
		return 0, kindMismatch(KindRegions, other)
	}
	d := float64(absInt(r.Major-o.Major)) +
		0.1*float64(absInt(r.Regions-o.Regions)) +
		0.05*float64(absInt(r.Holes-o.Holes))
	return d, nil
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
