package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	t.Parallel()
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 {
		t.Fatal("zero-value summary not empty")
	}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-3) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if math.Abs(s.Var()-2.5) > 1e-12 {
		t.Fatalf("Var = %v", s.Var())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.Median()-3) > 1e-12 {
		t.Fatalf("Median = %v", s.Median())
	}
	if math.Abs(s.Quantile(0)-1) > 1e-12 || math.Abs(s.Quantile(1)-5) > 1e-12 {
		t.Fatal("extreme quantiles wrong")
	}
	if math.Abs(s.Quantile(0.25)-2) > 1e-12 {
		t.Fatalf("Q1 = %v", s.Quantile(0.25))
	}
}

func TestSummaryMatchesNaiveVariance(t *testing.T) {
	t.Parallel()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		var s Summary
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
			s.Add(vals[i])
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(n)
		varSum := 0.0
		for _, v := range vals {
			varSum += (v - mean) * (v - mean)
		}
		naive := varSum / float64(n-1)
		return math.Abs(s.Var()-naive) < 1e-6*math.Max(1, naive)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuantileClamping(t *testing.T) {
	t.Parallel()
	var s Summary
	s.Add(7)
	if s.Quantile(-1) != 7 || s.Quantile(2) != 7 {
		t.Fatal("quantile clamp failed")
	}
	var empty Summary
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile not 0")
	}
}

func TestQuantileCacheInvalidation(t *testing.T) {
	t.Parallel()
	var s Summary
	s.Add(1)
	s.Add(3)
	if got := s.Median(); got != 2 {
		t.Fatalf("median of {1,3} = %v, want 2", got)
	}
	// A later Add must invalidate the cached sorted slice.
	s.Add(100)
	if got := s.Median(); got != 3 {
		t.Fatalf("median of {1,3,100} = %v, want 3", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("max quantile = %v, want 100", got)
	}
	// Repeated reads without Add keep returning consistent values.
	if a, b := s.Quantile(0.5), s.Quantile(0.5); a != b {
		t.Fatalf("repeated quantile differs: %v vs %v", a, b)
	}
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.23456789)
	tb.AddRow("b", 42)
	if tb.NumRows() != 2 {
		t.Fatal("NumRows")
	}
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.235") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestLinearFit(t *testing.T) {
	t.Parallel()
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept, ok := LinearFit(x, y)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	if _, _, ok := LinearFit([]float64{1}, []float64{1}); ok {
		t.Error("fit with one point succeeded")
	}
	if _, _, ok := LinearFit([]float64{2, 2}, []float64{1, 3}); ok {
		t.Error("fit with constant x succeeded")
	}
	if _, _, ok := LinearFit([]float64{1, 2}, []float64{1}); ok {
		t.Error("fit with mismatched lengths succeeded")
	}
}
