package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningKnownValues(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if !almost(r.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// Population variance is 4; sample variance 32/7.
	if !almost(r.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdErr() != 0 {
		t.Error("zero value not neutral")
	}
	r.Add(3)
	if r.Mean() != 3 || r.Variance() != 0 {
		t.Error("single observation wrong")
	}
}

func TestConfidenceShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var small, large Running
	for i := 0; i < 100; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(rng.NormFloat64())
	}
	ci1 := small.Confidence(Z95)
	ci2 := large.Confidence(Z95)
	if (ci2.High - ci2.Low) >= (ci1.High - ci1.Low) {
		t.Error("interval did not shrink with more samples")
	}
	if ci1.Low > ci1.Mean || ci1.High < ci1.Mean {
		t.Error("interval does not bracket the mean")
	}
}

func TestConfidenceCoverage(t *testing.T) {
	// ~95% of intervals from N(0,1) samples must contain 0.
	rng := rand.New(rand.NewSource(2))
	hits := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		var r Running
		for i := 0; i < 200; i++ {
			r.Add(rng.NormFloat64())
		}
		ci := r.Confidence(Z95)
		if ci.Low <= 0 && 0 <= ci.High {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("coverage = %.3f, want ~0.95", rate)
	}
}

func TestMergeMatchesSequentialProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var all, a, b Running
		na := rng.Intn(50)
		nb := 1 + rng.Intn(50)
		for i := 0; i < na; i++ {
			x := rng.Float64() * 10
			all.Add(x)
			a.Add(x)
		}
		for i := 0; i < nb; i++ {
			x := rng.Float64() * 10
			all.Add(x)
			b.Add(x)
		}
		m := Merge(a, b)
		return m.N() == all.N() &&
			almost(m.Mean(), all.Mean(), 1e-9) &&
			almost(m.Variance(), all.Variance(), 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
