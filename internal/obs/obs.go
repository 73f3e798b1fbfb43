// Package obs is the runtime observability layer: allocation-conscious
// atomic counters, gauges, and histograms collected in a Registry, plus a
// structured trace-event ring buffer and snapshot export as JSON
// (OverlaySnapshot) and Prometheus text format.
//
// The package is a leaf: transport, rlnc, protocol, and the public façade
// all import it, never the reverse. Every constructor tolerates a nil
// *Registry and every series method tolerates a nil receiver: a nil
// registry hands out nil series, and the bundles built from it are
// usable, so an uninstrumented component calls them unguarded and pays
// one nil check per series call, allocating nothing per event.
//
// The paper's robustness analysis (§3–§5) is about live overlay state:
// rows of the matrix M, hanging threads, repair traffic, per-node
// innovative-packet rates. This package turns those invariants into
// gauges and counters that can be watched while a churn experiment
// degrades and recovers the overlay.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Label is one key/value dimension of a metric series (e.g. the endpoint
// or node a transport counter belongs to).
type Label struct {
	Key   string
	Value string
}

// DefaultTraceCap is the capacity of a Registry's trace ring when no
// WithTraceCapacity option overrides it.
const DefaultTraceCap = 256

// RegistryOption configures a Registry at construction.
type RegistryOption func(*registrySettings)

type registrySettings struct {
	traceCap int
}

// WithTraceCapacity sizes the registry's trace-event ring. Values below 1
// fall back to DefaultTraceCap. Larger rings keep a longer diagnostic
// replay window at the cost of memory; smaller ones suit fleets of many
// short-lived nodes.
func WithTraceCapacity(n int) RegistryOption {
	return func(s *registrySettings) { s.traceCap = n }
}

// Registry collects metric series grouped into families (one family per
// metric name; series within a family differ by labels). It also owns the
// trace-event ring. All methods are safe for concurrent use and tolerate
// a nil receiver.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	trace    *Ring
	collect  []func()
}

type family struct {
	name  string
	help  string
	typ   string
	byKey map[string]interface{} // *Counter | *Gauge | *Histogram
	keys  []string
}

// NewRegistry creates an empty registry with a trace ring of
// DefaultTraceCap events unless an option overrides the capacity.
func NewRegistry(opts ...RegistryOption) *Registry {
	settings := registrySettings{traceCap: DefaultTraceCap}
	for _, o := range opts {
		o(&settings)
	}
	if settings.traceCap < 1 {
		settings.traceCap = DefaultTraceCap
	}
	return &Registry{
		families: make(map[string]*family),
		trace:    NewRing(settings.traceCap),
	}
}

// Trace returns the registry's trace-event ring (nil for a nil registry).
func (r *Registry) Trace() *Ring {
	if r == nil {
		return nil
	}
	return r.trace
}

// OnCollect registers a hook run before each Snapshot or Prometheus
// scrape — the lazy-sampling seam for sources (like runtime/metrics)
// that are only worth reading when someone is looking. Hooks run outside
// the registry lock, so they may set gauges freely. No-op on nil.
func (r *Registry) OnCollect(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collect = append(r.collect, fn)
	r.mu.Unlock()
}

// runCollectors invokes the collect hooks outside r.mu (hooks touch
// metrics, which take the lock themselves).
func (r *Registry) runCollectors() {
	r.mu.Lock()
	hooks := r.collect
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// family finds or creates the named family. Caller holds r.mu.
func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]interface{})}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// Counter finds or creates the counter series name{labels}. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter")
	key := labelKey(labels)
	if m, ok := f.byKey[key]; ok {
		return m.(*Counter)
	}
	c := &Counter{series: newSeries(labels, key)}
	f.byKey[key] = c
	f.keys = append(f.keys, key)
	return c
}

// Gauge finds or creates the gauge series name{labels}. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "gauge")
	key := labelKey(labels)
	if m, ok := f.byKey[key]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{series: newSeries(labels, key)}
	f.byKey[key] = g
	f.keys = append(f.keys, key)
	return g
}

// Histogram finds or creates the histogram series name{labels} with the
// given sorted upper bucket bounds (an implicit +Inf bucket is appended).
// When the series already exists its original bounds win. A nil registry
// returns a nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram")
	key := labelKey(labels)
	if m, ok := f.byKey[key]; ok {
		return m.(*Histogram)
	}
	h := newHistogram(newSeries(labels, key), bounds)
	f.byKey[key] = h
	f.keys = append(f.keys, key)
	return h
}

// Snapshot returns every series as a MetricPoint, families sorted by name
// and series by label key, so output is deterministic.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.runCollectors()
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	var out []MetricPoint
	for _, name := range names {
		f := r.families[name]
		keys := append([]string(nil), f.keys...)
		sort.Strings(keys)
		for _, key := range keys {
			out = append(out, pointOf(f, f.byKey[key]))
		}
	}
	return out
}

// pointOf renders one series of family f as a MetricPoint.
func pointOf(f *family, m interface{}) MetricPoint {
	p := MetricPoint{Name: f.name, Type: f.typ}
	switch v := m.(type) {
	case *Counter:
		p.Labels = v.labelMap()
		p.Value = float64(v.Value())
	case *Gauge:
		p.Labels = v.labelMap()
		p.Value = float64(v.Value())
	case *Histogram:
		p.Labels = v.labelMap()
		sum, count, buckets := v.snapshot()
		p.Sum = sum
		p.Count = count
		p.Buckets = buckets
	}
	return p
}

// labelKey renders labels canonically (sorted, escaped) for map keys and
// the Prometheus label block.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := ""
	for i, l := range ls {
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return out
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}
