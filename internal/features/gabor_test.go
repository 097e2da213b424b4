package features

import (
	"math"
	"testing"
)

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
			if !gaborAll[m][n] {
				t.Errorf("filter (%d,%d) missing from gaborAll", m, n)
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
		means, devs := gaborStats(gaborGray(im), &gaborLive)
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
		if got := ExtractGabor(im); got.Vec != want.Vec {
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
