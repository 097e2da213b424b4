package features

import (
	"math"
	"testing"

	"cbvr/internal/imaging"
)

// gaborGray derives the 64×64 grayscale filtering raster from an analysis
// raster: convert, then rescale.
func gaborGray(a *imaging.Image) *imaging.Gray {
	return a.ToGray().Rescale(gaborImageSize, gaborImageSize)
}

// gaborStatsReference is the naive statistics pass over all 30 filters:
// its own rescale and conversion, fresh float planes per call and a
// bounds-checked scalar inner loop, exactly the pre-optimisation code. It
// backs ExtractGaborReference, the bit-identity baseline and "before"
// benchmark for gaborStats.
func gaborStatsReference(im *imaging.Image) (means, devs [GaborScales][GaborOrientations]float64) {
	gaborBankOnce.Do(buildGaborBank)
	g := gaborGray(analysisImage(im))
	w, h := g.W, g.H
	pix := make([]float64, w*h)
	for i, v := range g.Pix {
		pix[i] = float64(v) / 255
	}
	imageSize := float64(w * h)
	mags := make([]float64, w*h)
	for m := 0; m < GaborScales; m++ {
		for n := 0; n < GaborOrientations; n++ {
			k := &gaborBank[m][n]
			r := k.radius
			side := 2*r + 1
			var sum float64
			count := 0
			for y := r; y < h-r; y++ {
				for x := r; x < w-r; x++ {
					var re, imag float64
					ti := 0
					for dy := -r; dy <= r; dy++ {
						base := (y+dy)*w + x - r
						for dx := 0; dx < side; dx++ {
							p := pix[base+dx]
							re += float64(p * k.re[ti])
							imag += float64(p * k.im[ti])
							ti++
						}
					}
					mag := math.Sqrt(float64(re*re) + float64(imag*imag))
					mags[count] = mag
					sum += mag
					count++
				}
			}
			mean := sum / imageSize
			var sq float64
			for i := 0; i < count; i++ {
				d := mags[i] - mean
				sq += float64(d * d)
			}
			means[m][n] = mean
			devs[m][n] = math.Sqrt(sq) / imageSize
		}
	}
	return means, devs
}

// ExtractGaborReference computes the descriptor through the naive
// statistics pass — the bit-identity baseline for the planes extractor.
func ExtractGaborReference(im *imaging.Image) *Gabor {
	means, devs := gaborStatsReference(im)
	return gaborFaithfulLayout(&means, &devs)
}

// ExtractGaborCorrected is the indexing-bug ablation: the statistics of
// all 30 filters in the corrected (m*N+n)*2 layout, the vector the paper's
// descriptor would have had without the bug.
func ExtractGaborCorrected(im *imaging.Image) *Gabor {
	var all gaborFilterSet
	for m := range all {
		for n := range all[m] {
			all[m][n] = true
		}
	}
	means, devs := gaborStats(gaborGray(analysisImage(im)), &all)
	out := &Gabor{}
	for m := 0; m < GaborScales; m++ {
		for n := 0; n < GaborOrientations; n++ {
			out.Vec[(m*GaborOrientations+n)*2] = means[m][n]
			out.Vec[(m*GaborOrientations+n)*2+1] = devs[m][n]
		}
	}
	return out
}

// TestGaborLiveMatchesFaithfulLayout derives the live set independently
// of buildGaborBank — by pushing a distinct tag per filter through
// gaborFaithfulLayout itself and reading back which tags survive — and
// requires gaborLive to be exactly that: 18 filters, orientations 0–2 at
// scales 0–3 and all six at scale 4.
func TestGaborLiveMatchesFaithfulLayout(t *testing.T) {
	gaborBankOnce.Do(buildGaborBank)
	var tags [GaborScales][GaborOrientations]float64
	for m := range tags {
		for n := range tags[m] {
			tags[m][n] = float64(1 + m*GaborOrientations + n)
		}
	}
	var survives gaborFilterSet
	for _, tag := range gaborFaithfulLayout(&tags, &tags).Vec {
		if tag != 0 {
			f := int(tag) - 1
			survives[f/GaborOrientations][f%GaborOrientations] = true
		}
	}
	live := 0
	for m := range gaborLive {
		for n, l := range gaborLive[m] {
			if l {
				live++
			}
			if l != survives[m][n] {
				t.Errorf("filter (%d,%d): gaborLive %v, but the layout keeps it: %v", m, n, l, survives[m][n])
			}
			if want := n < 3 || m == GaborScales-1; l != want {
				t.Errorf("filter (%d,%d): live %v, want %v", m, n, l, want)
			}
		}
	}
	if live != 18 {
		t.Errorf("%d live filters, want 18", live)
	}
}

// TestGaborDeadFiltersNeverReachVec is the proof the skip is safe, on
// real statistics: the live statistics gaborStats computes are the
// reference's bits and the skipped ones stay zero; whatever a dead
// filter's statistics hold — here NaN — the faithful layout's Vec is the
// same; and the corrected layout, which keeps all 30, still matches the
// reference statistics slot for slot.
func TestGaborDeadFiltersNeverReachVec(t *testing.T) {
	for name, im := range equivalenceFrames() {
		refMeans, refDevs := gaborStatsReference(im)
		means, devs := gaborStats(gaborGray(analysisImage(im)), &gaborLive)
		for m := range means {
			for n := range means[m] {
				wantMean, wantDev := refMeans[m][n], refDevs[m][n]
				if !gaborLive[m][n] {
					wantMean, wantDev = 0, 0
				}
				if means[m][n] != wantMean || devs[m][n] != wantDev {
					t.Errorf("%s: filter (%d,%d) = (%v, %v), want (%v, %v)",
						name, m, n, means[m][n], devs[m][n], wantMean, wantDev)
				}
			}
		}
		want := gaborFaithfulLayout(&refMeans, &refDevs)
		if got := mustExtract(t, KindGabor, im).(*Gabor); got.Vec != want.Vec {
			t.Errorf("%s: live-filter Vec differs from the 30-filter reference layout", name)
		}
		poisonedMeans, poisonedDevs := refMeans, refDevs
		for m := range gaborLive {
			for n, l := range gaborLive[m] {
				if !l {
					poisonedMeans[m][n], poisonedDevs[m][n] = math.NaN(), math.NaN()
				}
			}
		}
		if got := gaborFaithfulLayout(&poisonedMeans, &poisonedDevs); got.Vec != want.Vec {
			t.Errorf("%s: a dead filter's statistics reached Vec", name)
		}
		corrected := ExtractGaborCorrected(im)
		for m := range refMeans {
			for n := range refMeans[m] {
				i := (m*GaborOrientations + n) * 2
				if corrected.Vec[i] != refMeans[m][n] || corrected.Vec[i+1] != refDevs[m][n] {
					t.Errorf("%s: corrected layout slot %d differs from the reference statistics of filter (%d,%d)", name, i, m, n)
				}
			}
		}
	}
}
