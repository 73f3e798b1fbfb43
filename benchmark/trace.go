package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented here). Times are
// nanoseconds since the tracer's epoch. Spans of one session cycle share
// Session; Parent is the id of the span that caused this one, 0 for a
// root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Session string `json:"session"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced cycles pay one nil check per would-be span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its id.
func (t *tracer) add(session, name, layer string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Session: session, Name: name, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
	return id
}

// open reserves an id for a span whose children finish before it does;
// close fills in its end.
func (t *tracer) open(session, name, layer string, parent int, start time.Time) int {
	return t.add(session, name, layer, parent, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (generations decode concurrently under one download), so the
// covered part is the length of the union of the child intervals clipped
// to the parent.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	children := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := s.Start, s.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			children[s.Parent] = append(children[s.Parent], iv{a, b})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, hi int64
		hi = s.Start
		for _, c := range ivs {
			if c.b <= hi {
				continue
			}
			if c.a > hi {
				hi = c.a
			}
			covered += c.b - hi
			hi = c.b
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// traceFile is the document written to out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// LayerSelfNs is self time summed by layer over Spans.
	LayerSelfNs map[string]int64 `json:"layer_self_ns"`
	Spans       []span           `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, LayerSelfNs: layerSelf(spans), Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
