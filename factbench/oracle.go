package main

import (
	"math"
	"sort"
)

// The oracles below are written apart from the service's own
// implementations (internal/monitor, internal/stats, internal/pipeline):
// the output checks compare the service against them, never against a
// stored copy of an earlier output.

// ksTwoSample is the two-sample Kolmogorov-Smirnov statistic
// sup_x |F_a(x) - F_b(x)| of two samples, with the empirical CDFs
// evaluated at every distinct value (ties counted in full).
func ksTwoSample(a, b []float64) float64 {
	x := append([]float64(nil), a...)
	y := append([]float64(nil), b...)
	sort.Float64s(x)
	sort.Float64s(y)
	points := append(append([]float64(nil), x...), y...)
	sort.Float64s(points)
	var d float64
	for k, v := range points {
		if k > 0 && points[k-1] == v {
			continue
		}
		// Values <= v on each side.
		fa := float64(sort.Search(len(x), func(i int) bool { return x[i] > v })) / float64(len(x))
		fb := float64(sort.Search(len(y), func(i int) bool { return y[i] > v })) / float64(len(y))
		d = math.Max(d, math.Abs(fa-fb))
	}
	return d
}

// psiFloorShare is the smallest level share the PSI oracle uses, so a
// level absent on one side gives a large but finite index.
const psiFloorShare = 1e-4

// psiCategorical is the population stability index of two categorical
// samples: the sum over the union of levels of (p - q) ln(p / q), with
// p and q the level shares of baseline and current, each floored at
// psiFloorShare.
func psiCategorical(baseline, current []string) float64 {
	bc, cc := map[string]float64{}, map[string]float64{}
	for _, v := range baseline {
		bc[v]++
	}
	for _, v := range current {
		cc[v]++
	}
	levels := map[string]bool{}
	for k := range bc {
		levels[k] = true
	}
	for k := range cc {
		levels[k] = true
	}
	var out float64
	for k := range levels {
		p := math.Max(bc[k]/float64(len(baseline)), psiFloorShare)
		q := math.Max(cc[k]/float64(len(current)), psiFloorShare)
		out += (p - q) * math.Log(p/q)
	}
	return out
}

// z975 is the standard normal 97.5% quantile.
const z975 = 1.959963984540054

// wilson95 is the Wilson score 95% interval for k successes in n
// trials.
func wilson95(k, n int) (lo, hi float64) {
	p := float64(k) / float64(n)
	nf := float64(n)
	z2 := z975 * z975
	centre := (p + z2/(2*nf)) / (1 + z2/nf)
	half := z975 / (1 + z2/nf) * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo, hi = math.Max(0, centre-half), math.Min(1, centre+half)
	if k == 0 {
		lo = 0
	}
	if k == n {
		hi = 1
	}
	return lo, hi
}

// rrKeep is the probability that binary randomized response at
// privacy level eps reports the true value: e^eps / (1 + e^eps).
func rrKeep(eps float64) float64 { return 1 / (1 + math.Exp(-eps)) }

// binomialBand is the interval mean ± z standard deviations of the
// observed share of successes in n Bernoulli(p) trials.
func binomialBand(n int, p, z float64) (lo, hi float64) {
	sd := math.Sqrt(p * (1 - p) / float64(n))
	return p - z*sd, p + z*sd
}

// close reports whether a and b agree to float rounding: within tol
// relative to the larger magnitude (absolute near zero).
func closeTo(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}
