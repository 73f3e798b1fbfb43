package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramConcurrent(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "depth")
	h := r.Histogram("test_lat", "latency", []float64{10, 100, 1000})

	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i % 2000))
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	_, count, buckets := h.snapshot()
	if buckets[len(buckets)-1].Count != count {
		t.Errorf("+Inf bucket = %d, want cumulative %d", buckets[len(buckets)-1].Count, count)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Count < buckets[i-1].Count {
			t.Errorf("buckets not cumulative at %d: %d < %d", i, buckets[i].Count, buckets[i-1].Count)
		}
	}
}

func TestRegistryDedupAndSnapshot(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a := r.Counter("dup_total", "d", Label{Key: "x", Value: "1"})
	b := r.Counter("dup_total", "d", Label{Key: "x", Value: "1"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("dup_total", "d", Label{Key: "x", Value: "2"})
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Add(3)
	other.Inc()
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d points, want 2", len(snap))
	}
	if snap[0].Labels["x"] != "1" || snap[0].Value != 3 {
		t.Errorf("first point = %+v", snap[0])
	}
	if snap[1].Labels["x"] != "2" || snap[1].Value != 1 {
		t.Errorf("second point = %+v", snap[1])
	}
}

// TestPrometheusGolden pins the exact text exposition format.
func TestPrometheusGolden(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("ncast_frames_total", "Frames processed.", Label{Key: "endpoint", Value: "srv"})
	c.Add(42)
	g := r.Gauge("ncast_nodes", "Population.")
	g.Set(-7)
	h := r.Histogram("ncast_lat_nanos", "Latency.", []float64{1, 10}, Label{Key: "endpoint", Value: "srv"})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ncast_frames_total Frames processed.
# TYPE ncast_frames_total counter
ncast_frames_total{endpoint="srv"} 42
# HELP ncast_lat_nanos Latency.
# TYPE ncast_lat_nanos histogram
ncast_lat_nanos_bucket{endpoint="srv",le="1"} 1
ncast_lat_nanos_bucket{endpoint="srv",le="10"} 2
ncast_lat_nanos_bucket{endpoint="srv",le="+Inf"} 3
ncast_lat_nanos_sum{endpoint="srv"} 105.5
ncast_lat_nanos_count{endpoint="srv"} 3
# HELP ncast_nodes Population.
# TYPE ncast_nodes gauge
ncast_nodes -7
`
	if got := sb.String(); got != want {
		t.Errorf("prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("esc_total", "e", Label{Key: "v", Value: "a\"b\\c\nd"}).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}

func TestNilSafety(t *testing.T) {
	t.Parallel()
	var r *Registry
	c := r.Counter("x_total", "x")
	g := r.Gauge("x", "x")
	h := r.Histogram("x_nanos", "x", LatencyBuckets())
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics accumulated values")
	}
	if r.Snapshot() != nil || r.Trace() != nil {
		t.Fatal("nil registry produced data")
	}
	r.Trace().Record(Event{Kind: "x"})
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	var tm *TransportMetrics
	tm.Sent(1)
	tm.Received(1)
	tm.Dropped()
	tm.ObserveSendBatch(1)
	tm.ObserveRecvBatch(1)
}

// TestNilRegistryBundles pins the one nil policy: every bundle built from
// a nil registry is usable. Each exported method of the bundle, of every
// series under it and of every sub-bundle runs without panicking, and
// every series is nil and reads zero, so nothing is recorded. The
// transport bundle is nil itself; its methods are nil-safe.
func TestNilRegistryBundles(t *testing.T) {
	t.Parallel()
	bundles := map[string]interface{}{
		"tracker":   NewTrackerMetrics(nil),
		"node":      NewNodeMetrics(nil, "x"),
		"codec":     NewCodecMetrics(nil),
		"source":    NewSourceMetrics(nil),
		"trace":     NewTraceMetrics(nil),
		"link":      NewLinkMetrics(nil),
		"runtime":   NewRuntimeMetrics(nil),
		"transport": NewTransportMetrics(nil, "x"),
	}
	for name, b := range bundles {
		v := reflect.ValueOf(b)
		if v.IsNil() && name != "transport" {
			t.Errorf("%s: nil bundle", name)
		}
		exerciseNil(t, name, v)
	}
}

// exerciseNil calls every exported method of the pointer v with non-zero
// arguments, then walks v's exported pointer fields: a series must be
// nil and read zero after its own methods ran, a sub-bundle is exercised
// in turn.
func exerciseNil(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumMethod(); i++ {
		name := path + "." + v.Type().Method(i).Name
		m := v.Method(i)
		args := make([]reflect.Value, m.Type().NumIn())
		for j := range args {
			args[j] = nonZeroArg(t, name, m.Type().In(j))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s panicked: %v", name, p)
				}
			}()
			m.Call(args)
		}()
	}
	if v.IsNil() {
		return
	}
	s := v.Elem()
	for i := 0; i < s.NumField(); i++ {
		f, sf := s.Field(i), s.Type().Field(i)
		if !sf.IsExported() || f.Kind() != reflect.Ptr {
			continue
		}
		name := path + "." + sf.Name
		switch series := f.Interface().(type) {
		case *Counter, *Gauge, *Histogram, *Ring:
			exerciseNil(t, name, f)
			if !f.IsNil() {
				t.Errorf("%s is a live series on a nil registry", name)
			}
			var n int64
			switch x := series.(type) {
			case *Counter:
				n = int64(x.Value())
			case *Gauge:
				n = x.Value()
			case *Histogram:
				n = int64(x.Count())
			case *Ring:
				n = int64(x.Len())
			}
			if n != 0 {
				t.Errorf("%s recorded %d", name, n)
			}
		default:
			if f.IsNil() {
				t.Errorf("%s is a nil sub-bundle", name)
				continue
			}
			exerciseNil(t, name, f)
		}
	}
}

// nonZeroArg builds an argument of type typ for a call to method name:
// one for numbers, the current time, a fresh pointer, or a hook that
// fails the test if it ever runs.
func nonZeroArg(t *testing.T, name string, typ reflect.Type) reflect.Value {
	switch typ.Kind() {
	case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
		return reflect.ValueOf(1).Convert(typ)
	case reflect.Ptr:
		return reflect.New(typ.Elem())
	case reflect.Func:
		return reflect.MakeFunc(typ, func([]reflect.Value) []reflect.Value {
			t.Errorf("%s ran its hook without a registry", name)
			return nil
		})
	}
	if typ == reflect.TypeOf(time.Time{}) {
		return reflect.ValueOf(time.Now())
	}
	return reflect.Zero(typ)
}

func TestRingWrapAround(t *testing.T) {
	t.Parallel()
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: "k", Node: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 || r.Len() != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Node != uint64(6+i) {
			t.Errorf("event %d = node %d, want %d (oldest-first)", i, ev.Node, 6+i)
		}
		if ev.At.IsZero() {
			t.Errorf("event %d missing timestamp", i)
		}
	}
	// Wrapping silently overwrote 6 events; the counter must say so.
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
	var nilRing *Ring
	if nilRing.Dropped() != 0 {
		t.Error("nil ring reported drops")
	}
}

func TestRingConcurrent(t *testing.T) {
	t.Parallel()
	r := NewRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{Kind: "k"})
				r.Events()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("ring len = %d, want 64", r.Len())
	}
}

func TestExpBuckets(t *testing.T) {
	t.Parallel()
	b := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-9 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestHTTPEndpoint(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("http_hits_total", "hits").Add(9)
	r.Trace().Record(Event{Layer: "tracker", Kind: "join", Node: 3})
	snapshot := func() OverlaySnapshot {
		return OverlaySnapshot{
			At:      time.Now(),
			Overlay: &OverlayHealth{K: 8, Nodes: 2, DegreeDist: map[int]int{2: 2}},
			Metrics: r.Snapshot(),
			Recent:  r.Trace().Events(),
		}
	}
	srv, err := Serve("127.0.0.1:0", r, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "http_hits_total 9") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	resp, err = http.Get("http://" + srv.Addr() + "/debug/overlay")
	if err != nil {
		t.Fatal(err)
	}
	var snap OverlaySnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Overlay == nil || snap.Overlay.Nodes != 2 || snap.Overlay.DegreeDist[2] != 2 {
		t.Errorf("overlay health = %+v", snap.Overlay)
	}
	if p := snap.Metric("http_hits_total"); p == nil || p.Value != 9 {
		t.Errorf("metric point = %+v", p)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Kind != "join" {
		t.Errorf("recent events = %+v", snap.Recent)
	}
}

// TestBucketJSONRoundTrip pins the +Inf encoding: JSON numbers cannot
// carry infinities, so the last bucket must survive a marshal/unmarshal
// round trip via the "+Inf" string form.
func TestBucketJSONRoundTrip(t *testing.T) {
	t.Parallel()
	in := []Bucket{{LE: 10, Count: 2}, {LE: math.Inf(+1), Count: 5}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"+Inf"`) {
		t.Fatalf("marshal = %s, want +Inf string", data)
	}
	var out []Bucket
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out[0].LE != 10 || out[0].Count != 2 || !math.IsInf(out[1].LE, +1) || out[1].Count != 5 {
		t.Fatalf("round trip = %+v", out)
	}
	// A full snapshot with a histogram must encode without error.
	r := NewRegistry()
	r.Histogram("rt_nanos", "rt", LatencyBuckets()).Observe(5)
	if _, err := json.Marshal(OverlaySnapshot{Metrics: r.Snapshot()}); err != nil {
		t.Fatalf("snapshot with histogram: %v", err)
	}
}

func TestSnapshotHelpers(t *testing.T) {
	t.Parallel()
	s := OverlaySnapshot{Metrics: []MetricPoint{
		{Name: "a_total", Labels: map[string]string{"node": "n1"}, Value: 2},
		{Name: "a_total", Labels: map[string]string{"node": "n2"}, Value: 3},
		{Name: "b_total", Value: 7},
	}}
	if got := s.SumMetric("a_total"); got != 5 {
		t.Errorf("SumMetric = %v, want 5", got)
	}
	if p := s.Metric("a_total", Label{Key: "node", Value: "n2"}); p == nil || p.Value != 3 {
		t.Errorf("Metric(n2) = %+v", p)
	}
	if p := s.Metric("missing"); p != nil {
		t.Errorf("Metric(missing) = %+v", p)
	}
}
