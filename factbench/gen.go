package main

import (
	"math"
	"math/rand"
	"strconv"
)

// creditCols is the header of every generated credit CSV: the schema
// of the service's synthetic credit population (internal/synth), so
// the default target/sensitive/protected/reference spec applies.
var creditCols = []string{"group", "income", "debt_ratio", "employment_years", "neighborhood", "late_payments", "approved"}

// creditSpec shapes one generated credit population.
type creditSpec struct {
	rows int
	// bias is the penalty on group B's approval log-odds (0 = fair).
	bias float64
	// groupB is the protected group's share of the rows.
	groupB float64
	seed   int64
}

// creditData holds one generated population column by column, with
// every float already rounded to the two decimals the CSV carries, so
// the oracles see exactly the values the service parses.
type creditData struct {
	group        []string
	income       []float64
	debtRatio    []float64
	employment   []float64
	neighborhood []string
	late         []float64
	approved     []float64
}

// numeric returns the numeric columns by name, in CSV order.
func (d *creditData) numeric() map[string][]float64 {
	return map[string][]float64{
		"income":           d.income,
		"debt_ratio":       d.debtRatio,
		"employment_years": d.employment,
		"late_payments":    d.late,
		"approved":         d.approved,
	}
}

// categorical returns the string columns by name.
func (d *creditData) categorical() map[string][]string {
	return map[string][]string{"group": d.group, "neighborhood": d.neighborhood}
}

// rows returns the row count.
func (d *creditData) rows() int { return len(d.group) }

// genCredit draws a loan-application population with the mechanism of
// the paper's credit example: group B's approvals carry a direct
// penalty (bias) on top of a group-blind creditworthiness score, and
// the neighborhood column is a redlining proxy for the group. The
// generator is the benchmark's own (math/rand with a fixed source), so
// the inputs do not change when the service's demo generator does.
func genCredit(s creditSpec) *creditData {
	r := rand.New(rand.NewSource(s.seed))
	n := s.rows
	d := &creditData{
		group:        make([]string, n),
		income:       make([]float64, n),
		debtRatio:    make([]float64, n),
		employment:   make([]float64, n),
		neighborhood: make([]string, n),
		late:         make([]float64, n),
		approved:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		isB := r.Float64() < s.groupB
		mu := 55.0
		d.group[i] = "A"
		if isB {
			mu = 50
			d.group[i] = "B"
		}
		d.income[i] = round2(clamp(mu+15*r.NormFloat64(), 8, 250))
		d.debtRatio[i] = round2(clamp(0.45+0.2*r.NormFloat64(), 0, 1.5))
		d.employment[i] = round2(clamp(r.ExpFloat64()/0.15, 0, 45))
		var hood int
		switch {
		case r.Float64() >= 0.8:
			hood = r.Intn(10)
		case isB:
			hood = 5 + r.Intn(5)
		default:
			hood = r.Intn(5)
		}
		d.neighborhood[i] = "n" + strconv.Itoa(hood)
		late := poisson(r, d.debtRatio[i]*2)
		d.late[i] = float64(late)
		score := 0.035*(d.income[i]-52) - 2.2*(d.debtRatio[i]-0.45) + 0.04*d.employment[i] - 0.35*float64(late)
		if isB {
			score -= s.bias
		}
		if r.Float64() < 1/(1+math.Exp(-score)) {
			d.approved[i] = 1
		}
	}
	return d
}

// csv renders rows [lo, hi) as a CSV document with a header row.
func (d *creditData) csv(lo, hi int) string {
	b := make([]byte, 0, (hi-lo)*48+64)
	for j, c := range creditCols {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, c...)
	}
	b = append(b, '\n')
	for i := lo; i < hi; i++ {
		b = append(b, d.group[i]...)
		b = append(b, ',')
		b = strconv.AppendFloat(b, d.income[i], 'f', 2, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, d.debtRatio[i], 'f', 2, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, d.employment[i], 'f', 2, 64)
		b = append(b, ',')
		b = append(b, d.neighborhood[i]...)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(d.late[i]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(d.approved[i]), 10)
		b = append(b, '\n')
	}
	return string(b)
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// poisson draws a Poisson variate by Knuth's product method (the
// means here are below 4).
func poisson(r *rand.Rand, mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// mix64 is the splitmix64 finalizer; it derives independent sub-seeds
// (dataset seeds, request seeds) from the run's --seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
