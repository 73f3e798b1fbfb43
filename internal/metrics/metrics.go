// Package metrics provides the small statistics toolkit the experiment
// harness uses: streaming summaries (mean/variance/min/max), quantiles,
// histograms, and fixed-width table rendering for experiment reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates scalar observations with Welford's online algorithm,
// so variance is numerically stable even for long runs.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
	vals []float64 // retained for quantiles
	// sorted caches sort.Float64s(vals); Add invalidates it so repeated
	// Quantile calls (the common report pattern: p50, p90, p99 in a row)
	// sort once instead of once per call.
	sorted []float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	s.vals = append(s.vals, x)
	s.sorted = nil
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Quantile returns the q-quantile (q in [0,1]) by linear interpolation of
// the sorted sample. It returns 0 when empty.
func (s *Summary) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if s.sorted == nil {
		s.sorted = append([]float64(nil), s.vals...)
		sort.Float64s(s.sorted)
	}
	sorted := s.sorted
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile.
func (s *Summary) Median() float64 { return s.Quantile(0.5) }

// Table renders experiment results as an aligned fixed-width text table,
// the output format of every E-experiment in the harness.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// LinearFit returns the least-squares slope and intercept of y against x.
// It returns ok=false when fewer than two distinct x values exist.
func LinearFit(x, y []float64) (slope, intercept float64, ok bool) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, false
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(x))
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, false
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, true
}
