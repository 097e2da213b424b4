//go:build !amd64 || purego

package features

// gaborRow computes one output row of filter k with the portable loop.
func gaborRow(re, im, pix []float64, stride int, k *gaborKernel) {
	gaborRowGo(re, im, pix, stride, k)
}
