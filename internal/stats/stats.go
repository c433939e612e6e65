// Package stats provides the running statistics the Monte-Carlo
// measurement layer reports: Welford-style mean/variance accumulation
// and normal-approximation confidence intervals, so simulated power
// numbers carry error bars instead of bare point estimates.
package stats

import "math"

// Running accumulates mean and variance online (Welford's algorithm).
// The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation in.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the observation count.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (0 before any observation).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// Interval is a symmetric confidence interval around a mean.
type Interval struct {
	Mean, Low, High float64
}

// Confidence returns the normal-approximation interval at the given z
// score (1.96 ≈ 95%, 2.58 ≈ 99%).
func (r *Running) Confidence(z float64) Interval {
	se := r.StdErr()
	return Interval{Mean: r.mean, Low: r.mean - z*se, High: r.mean + z*se}
}

// Z95 is the two-sided 95 % normal quantile.
const Z95 = 1.959963984540054

// Merge combines two accumulators (Chan et al. parallel variance).
func Merge(a, b Running) Running {
	if a.n == 0 {
		return b
	}
	if b.n == 0 {
		return a
	}
	n := a.n + b.n
	d := b.mean - a.mean
	mean := a.mean + d*float64(b.n)/float64(n)
	m2 := a.m2 + b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	return Running{n: n, mean: mean, m2: m2}
}
