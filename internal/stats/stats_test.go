package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Variance()-4) > 1e-12 {
		t.Errorf("variance = %v, want 4", w.Variance())
	}
	if math.Abs(w.Stddev()-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", w.Stddev())
	}
	if math.Abs(w.CoV()-0.4) > 1e-12 {
		t.Errorf("cov = %v, want 0.4", w.CoV())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CoV() != 0 {
		t.Error("empty accumulator should be all zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Error("single observation: mean 3, variance 0")
	}
}

// Property: Welford matches the two-pass formula on random data.
func TestWelfordProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			w.Add(xs[i])
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		var v float64
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(n)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-v) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares: %v, want 1", got)
	}
	// One flow hogging everything: index -> 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("max unfairness: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all zero: %v, want 0", got)
	}
	// Index is scale invariant.
	a := JainIndex([]float64{1, 2, 3})
	b := JainIndex([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("not scale invariant: %v vs %v", a, b)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
}

func TestRateSeries(t *testing.T) {
	rs := NewRateSeries(100 * time.Millisecond)
	rs.Add(0, 1000)
	rs.Add(50*time.Millisecond, 1000)
	rs.Add(150*time.Millisecond, 500)
	rs.Add(320*time.Millisecond, 100)
	rates := rs.Rates()
	if len(rates) != 4 {
		t.Fatalf("bins = %d, want 4", len(rates))
	}
	// Bin 0 holds 2000 bytes over 0.1 s -> 20000 B/s.
	if math.Abs(rates[0]-20000) > 1e-9 {
		t.Errorf("bin0 = %v", rates[0])
	}
	if math.Abs(rates[1]-5000) > 1e-9 || rates[2] != 0 || math.Abs(rates[3]-1000) > 1e-9 {
		t.Errorf("rates = %v", rates)
	}
	if got := rs.Total(); got != 2600 {
		t.Errorf("total = %v", got)
	}
}

func TestRateSeriesLateOrigin(t *testing.T) {
	rs := NewRateSeries(time.Second)
	rs.Add(10*time.Second, 100) // origin at 10 s
	rs.Add(11*time.Second, 100)
	if len(rs.Rates()) != 2 {
		t.Fatalf("bins = %d, want 2", len(rs.Rates()))
	}
	defer func() {
		if recover() == nil {
			t.Error("event before origin should panic")
		}
	}()
	rs.Add(9*time.Second, 1)
}

func TestRateSeriesCoVSkip(t *testing.T) {
	rs := NewRateSeries(time.Second)
	// Huge warm-up bin then perfectly steady traffic.
	rs.Add(0, 1_000_000)
	for i := 1; i < 10; i++ {
		rs.Add(time.Duration(i)*time.Second, 1000)
	}
	if cov := rs.CoV(1); cov > 1e-9 {
		t.Errorf("steady traffic CoV = %v, want 0", cov)
	}
	if cov := rs.CoV(0); cov < 1 {
		t.Errorf("with warm-up CoV = %v, want large", cov)
	}
	if cov := rs.CoV(100); cov != 0 {
		t.Errorf("skip beyond data = %v, want 0", cov)
	}
}

func TestNewRateSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width should panic")
		}
	}()
	NewRateSeries(0)
}
