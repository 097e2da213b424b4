//go:build amd64 && !purego

package features

// gaborRowSSE2 is gaborRowGo for an even number of outputs n, two adjacent
// outputs per instruction (gabor_amd64.s). SSE2 is the amd64 baseline, so
// there is no feature test and no second runtime path.
//
//go:noescape
func gaborRowSSE2(re, im, pix *float64, stride, n int, kre2, kim2 *float64, side int)

// gaborRow computes one output row of filter k: len(re) = len(im) outputs
// from the pixel window whose top-left corner is pix[0]. The kernel takes
// the outputs in pairs (gaborImageSize − 2·radius is always even); an odd
// last one goes through the portable loop.
func gaborRow(re, im, pix []float64, stride int, k *gaborKernel) {
	n := len(re) &^ 1
	if n < len(re) {
		gaborRowGo(re[n:], im[n:], pix[n:], stride, k)
	}
	if n == 0 {
		return
	}
	side := 2*k.radius + 1
	_ = pix[(side-1)*stride+n+side-2] // the kernel reads up to here unchecked
	_ = im[n-1]
	gaborRowSSE2(&re[0], &im[0], &pix[0], stride, n, &k.re2[0], &k.im2[0], side)
}
