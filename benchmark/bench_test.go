package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(vals, n=4) from Python 3.
	for _, c := range []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.vals)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		used float64
	}{
		{1000, 99, 99}, {999, 99, 95}, {200, 99, 95}, {199, 99, 90},
		{100, 99, 90}, {40, 99, 75}, {39, 99, 50}, {3, 99, 50},
		{100000, 95, 95}, {100000, 99.9, 99.9},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.used {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.used)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if v, used := tail(samples, 99); v != 991 || used != 99 { // ten samples, 991..1000, at or beyond it
		t.Errorf("tail = %g at p%g, want 991 at p99", v, used)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100, Layer: "a"},
		{ID: 2, Parent: 1, Start: 10, End: 30, Layer: "b"},
		{ID: 3, Parent: 1, Start: 20, End: 50, Layer: "b"},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 70, End: 120, Layer: "c"}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 45, Layer: "c"},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (40 + 30), 2: 20, 3: 10, 4: 50, 5: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got, want := layerSelf(spans), map[string]int64{"a": 30, "b": 30, "c": 70}; !reflect.DeepEqual(got, want) {
		t.Errorf("layerSelf = %v, want %v", got, want)
	}
}

func TestOpenLoopCountsLatenessFromTheFixedSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	clock := start
	ol := openLoop{
		interval: 10 * time.Millisecond, n: 5, maxNap: time.Millisecond,
		now:   func() time.Time { return clock },
		sleep: func(d time.Duration) { clock = clock.Add(d) },
	}
	var issuedAt []time.Duration
	outstanding := 0
	issue := func(i int) {
		issuedAt = append(issuedAt, clock.Sub(start))
		outstanding++
		if i == 2 {
			clock = clock.Add(35 * time.Millisecond) // the generator stalls
		}
	}
	polls := 0
	poll := func(time.Time) int {
		polls++
		if polls > 100 { // completions arrive late, after the last issue
			outstanding = 0
		}
		return outstanding
	}
	late := ol.run(start, issue, poll, time.Second)
	// Operations 3 and 4 were due at 30 and 40 ms while the generator was
	// stalled until 55 ms: they go out at once, late by 25 and 15 ms, and
	// the schedule itself does not slip.
	want := []time.Duration{0, 0, 0, 25 * time.Millisecond, 15 * time.Millisecond}
	if !reflect.DeepEqual(late, want) {
		t.Errorf("lateness = %v, want %v", late, want)
	}
	wantIssued := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 55 * time.Millisecond, 55 * time.Millisecond}
	if !reflect.DeepEqual(issuedAt, wantIssued) {
		t.Errorf("issued at %v, want %v", issuedAt, wantIssued)
	}
	if outstanding != 0 {
		t.Errorf("run returned with %d operations outstanding before the drain deadline", outstanding)
	}
}

// TestBenchmarkJSONAgreesWithTheProgram keeps the driver's contract and
// the program's own tables from drifting apart.
func TestBenchmarkJSONAgreesWithTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
	full := specs("full")
	if len(doc.Workloads) != len(full) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(full))
	}
	for i, w := range full {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, doc.Workloads[i].Name, w.name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	// The driver makes 4 + 22 runs per workload and all of them, with two
	// builds, must fit in 3420 s; a run is the measured time plus the
	// warm-up cycle, the last cycle's overrun and the crash drill.
	if runs := 4 + 22*len(full); float64(runs)*(float64(doc.RunSeconds)+8)+120 > 3420 {
		t.Errorf("%d runs of %d s do not fit the driver's 3420 s", runs, doc.RunSeconds)
	}
}

// TestTinySmoke walks all five workloads, untraced and traced, at a scale
// whose numbers mean nothing, so the harness cannot rot unnoticed.
func TestTinySmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range specs("tiny") {
		plain := w.runUntraced(1, 0.2)
		if plain.failed != 0 || plain.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, plain.failed, plain.attempted, plain.failures)
		}
		for _, m := range endToEnd {
			if v, ok := plain.values[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, v)
			}
		}
		traced := w.runTraced(1, 0.2, out)
		if traced.failed != 0 {
			t.Errorf("%s traced: %d operations failed: %v", w.name, traced.failed, traced.failures)
		}
		for _, m := range perLayer {
			if _, ok := traced.values[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.Name)
			}
		}
		data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
			t.Errorf("%s: trace file has %d spans (err=%v)", w.name, len(tf.Spans), err)
		}
	}
}
