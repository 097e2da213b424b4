//go:build amd64 && !purego

package features

import (
	"math"
	"math/rand"
	"testing"
)

// TestGaborRowSSE2MatchesGo is the differential test of the assembly row
// kernel against gaborRowGo, bit for bit, for all 30 kernels, at output
// counts that exercise four-blocks only (4, 48), the two-output tail only
// (2) and both (6, 58 — the production radius-3 row), on random,
// all-zero, all-one and alternating 0/1 rows (the normalised 0/255
// plane). Outputs land in the middle of a sentinel-filled buffer, so a
// store outside re[0:n]/im[0:n] is seen.
//
// Seeded mutations, each run against this test: dropping the tail block
// fails n = 2, 6, 58; advancing the tap pointer by 16 instead of 8 bytes,
// loading kim2 for the real part, or skipping the per-row stride fails
// every non-constant plane; storing X1 at 8(DI) instead of 16(DI)
// fails every n ≥ 4.
func TestGaborRowSSE2MatchesGo(t *testing.T) {
	gaborBankOnce.Do(buildGaborBank)
	const (
		stride   = 80 // ≥ 58 + 2·gaborMaxRadius
		rows     = 2*gaborMaxRadius + 1
		sentinel = -12345.678
	)
	rng := rand.New(rand.NewSource(7))
	planes := []struct {
		name string
		fill func(i int) float64
	}{
		{"random", func(int) float64 { return float64(rng.Intn(256)) / 255 }},
		{"zero", func(int) float64 { return 0 }},
		{"one", func(int) float64 { return 1 }},
		{"alternating", func(i int) float64 { return float64(i % 2) }},
	}
	for _, plane := range planes {
		name := plane.name
		pix := make([]float64, stride*rows)
		for i := range pix {
			pix[i] = plane.fill(i)
		}
		for m := range gaborBank {
			for o := range gaborBank[m] {
				k := &gaborBank[m][o]
				for _, n := range []int{2, 4, 6, 48, 58} {
					want := [2][]float64{make([]float64, n), make([]float64, n)}
					gaborRowGo(want[0], want[1], pix, stride, k)
					var got [2][]float64
					for i := range got {
						got[i] = make([]float64, n+8)
						for j := range got[i] {
							got[i][j] = sentinel
						}
					}
					gaborRowSSE2(&got[0][4], &got[1][4], &pix[0], stride, n, &k.re2[0], &k.im2[0], 2*k.radius+1)
					for i, part := range [2]string{"re", "im"} {
						for j, v := range got[i] {
							exp := sentinel
							if j >= 4 && j < 4+n {
								exp = want[i][j-4]
							}
							if math.Float64bits(v) != math.Float64bits(exp) {
								t.Fatalf("%s plane, filter (%d,%d), n=%d: %s[%d] = %v, want %v", name, m, o, n, part, j-4, v, exp)
							}
						}
					}
				}
			}
		}
	}
}

// TestGaborRowOddCount covers the binding's odd-count path, which the
// 64×64 raster never takes: the last output comes from the portable loop.
func TestGaborRowOddCount(t *testing.T) {
	gaborBankOnce.Do(buildGaborBank)
	rng := rand.New(rand.NewSource(8))
	k := &gaborBank[2][1]
	const stride = 40
	pix := make([]float64, stride*(2*k.radius+1))
	for i := range pix {
		pix[i] = rng.Float64()
	}
	for _, n := range []int{0, 1, 7} {
		re, im := make([]float64, n), make([]float64, n)
		wantRe, wantIm := make([]float64, n), make([]float64, n)
		gaborRow(re, im, pix, stride, k)
		gaborRowGo(wantRe, wantIm, pix, stride, k)
		for j := range re {
			if re[j] != wantRe[j] || im[j] != wantIm[j] {
				t.Errorf("n=%d: output %d = (%v, %v), want (%v, %v)", n, j, re[j], im[j], wantRe[j], wantIm[j])
			}
		}
	}
}
