package imaging

import "math"

// HuangThreshold computes the minimum-fuzziness threshold of Huang & Wang
// (1995) over a 256-bin histogram. This is JAI's
// Histogram.getMinFuzzinessThreshold, which the paper's region-growing
// preprocessor calls to binarise frames.
//
// The returned threshold t means: pixels with intensity <= t are background
// (0) and pixels above are foreground (255). For a histogram with fewer
// than two non-empty bins the single occupied bin (or 0) is returned.
func HuangThreshold(hist [256]int) int {
	first, last := -1, -1
	for i, c := range hist {
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0
	}
	if first == last {
		return first
	}

	// Prefix sums of counts and weighted counts for O(1) window means.
	var s [257]float64  // s[i] = sum hist[0..i-1]
	var ws [257]float64 // ws[i] = sum k*hist[k] for k in [0,i)
	for i := 0; i < 256; i++ {
		s[i+1] = s[i] + float64(hist[i])
		ws[i+1] = ws[i] + float64(i)*float64(hist[i])
	}

	// Shannon entropy function on membership values, S(x) = -x ln x -
	// (1-x) ln(1-x), with S(0)=S(1)=0.
	entropy := func(mu float64) float64 {
		if mu <= 0 || mu >= 1 {
			return 0
		}
		return -mu*math.Log(mu) - (1-mu)*math.Log(1-mu)
	}

	c := float64(last - first) // normalisation constant for |g - mu|
	bestT, bestE := first, math.MaxFloat64
	for t := first; t < last; t++ {
		// Background mean over [0, t], foreground mean over (t, 255].
		bCount := s[t+1]
		fCount := s[256] - s[t+1]
		if bCount == 0 || fCount == 0 {
			continue
		}
		mu0 := ws[t+1] / bCount
		mu1 := (ws[256] - ws[t+1]) / fCount
		var e float64
		for g := first; g <= last; g++ {
			if hist[g] == 0 {
				continue
			}
			var mu float64
			if g <= t {
				mu = 1 / (1 + math.Abs(float64(g)-mu0)/c)
			} else {
				mu = 1 / (1 + math.Abs(float64(g)-mu1)/c)
			}
			e += entropy(mu) * float64(hist[g])
		}
		if e < bestE {
			bestE, bestT = e, t
		}
	}
	return bestT
}
