package imaging

// Histogram returns the 256-bin intensity histogram of the grayscale
// raster. The sum of all bins equals W*H.
func (g *Gray) Histogram() [256]int {
	var h [256]int
	for _, v := range g.Pix {
		h[v]++
	}
	return h
}

// GrayHistogram converts the image to grayscale (paper luma weights) and
// returns its 256-bin histogram. This is the histogram the range-finder
// index (§4.2) operates on.
func (im *Image) GrayHistogram() [256]int {
	var h [256]int
	si := 0
	for p := 0; p < im.W*im.H; p++ {
		h[GrayValue(im.Pix[si], im.Pix[si+1], im.Pix[si+2])]++
		si += 3
	}
	return h
}

// Mean returns the average intensity of the grayscale raster, or 0 for an
// empty image.
func (g *Gray) Mean() float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	var sum int64
	for _, v := range g.Pix {
		sum += int64(v)
	}
	return float64(sum) / float64(len(g.Pix))
}
