package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// clusterFixture is a deterministic ClusterSnapshot used by the endpoint
// and golden tests.
func clusterFixture() ClusterSnapshot {
	return ClusterSnapshot{
		At:               time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Overlay:          &OverlayHealth{K: 4, DefaultDegree: 2, Nodes: 2, DegreeDist: map[int]int{2: 2}},
		StaleAfterMillis: 3000,
		Nodes: []ClusterNode{
			{ID: 1, Addr: "n1", AgeMillis: 120, Fresh: true, Rank: 16, MaxRank: 16, Progress: 1,
				GensDone: 2, TotalGens: 2, Complete: true, GenRanks: []int{8, 8},
				Received: 20, Innovative: 16, Redundant: 4, LeaseRenewals: 3,
				DelayP50Nanos: 1_000_000, DelayP90Nanos: 2_000_000, DelayP99Nanos: 2_000_000,
				OverheadPermille: 1250},
			{ID: 2, Addr: "n2", AgeMillis: 9000, Fresh: false, Rank: 8, MaxRank: 16, Progress: 0.5,
				GensDone: 1, TotalGens: 2, GenRanks: []int{8, 0}, Received: 9, Innovative: 8,
				Redundant: 1, DelayP50Nanos: 5_000_000, DelayP90Nanos: 5_000_000,
				DelayP99Nanos: 5_000_000, OverheadPermille: 1125},
		},
		Generations: []GenerationHealth{
			{Index: 0, Gen: 0, Decoded: 2, Reporting: 2},
			{Index: 1, Gen: 1, Decoded: 1, Reporting: 2, StragglerIDs: []uint64{2}},
		},
		SlowestID:          1,
		FleetDelayP50Nanos: 1_000_000,
		FleetDelayP90Nanos: 1_000_000,
		FleetDelayP99Nanos: 1_000_000,
	}
}

// traceFixture is a deterministic TraceSnapshot source used by the
// endpoint and golden tests: two generations, two hop levels, an eviction
// already absorbed.
func traceFixture() TraceSnapshot {
	c := NewTraceCollector(4, nil)
	c.Ingest(1, []TraceHop{{TraceID: 11, Gen: 0, Hop: 1, Received: 8, Innovative: 8,
		Forwarded: 8, FirstArrivalNano: 1_100, LastArrivalNano: 1_500, EmitNanos: 1_000}})
	c.Ingest(2, []TraceHop{{TraceID: 11, Gen: 0, Hop: 2, Received: 8, Innovative: 6,
		FirstArrivalNano: 1_300, LastArrivalNano: 1_900, EmitNanos: 1_000}})
	c.Ingest(1, []TraceHop{{TraceID: 12, Gen: 1, Hop: 1, Received: 4, Innovative: 4,
		FirstArrivalNano: 2_200, LastArrivalNano: 2_400, EmitNanos: 2_000}})
	return c.Snapshot()
}

// linkFixture is a deterministic LinkSnapshot source used by the endpoint
// and golden tests: two reporters, one lossy edge, one RTT-bearing edge.
func linkFixture() LinkSnapshot {
	at := time.Now()
	return AssembleLinks(at, time.Minute, []LinkRow{
		{Reporter: 1, ReporterAddr: "n1", At: at, Links: []LinkReport{
			{Peer: "n2", Frames: 100, Bytes: 10_000, Expected: 100, Received: 90,
				LossPermille: 100, RTTEwmaNanos: 2_000_000, JitterNanos: 250_000,
				RTTSamples: 5, Innovative: 80, Redundant: 10, InnovationPermille: 888},
		}},
		{Reporter: 2, ReporterAddr: "n2", At: at, Links: []LinkReport{
			{Peer: "n1", Frames: 50, Bytes: 5_000, Expected: 50, Received: 50,
				Innovative: 50, InnovationPermille: 1000},
		}},
	}, map[string]uint64{"n1": 1, "n2": 2})
}

// TestHTTPConcurrentScrapes hammers every endpoint from concurrent
// goroutines while metrics keep changing — the scrape path must be
// race-free (this test earns its keep under -race).
func TestHTTPConcurrentScrapes(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("scrape_hits_total", "hits")
	srv, err := Serve("127.0.0.1:0", r, nil,
		WithClusterSnapshot(clusterFixture), WithTraceSnapshot(traceFixture),
		WithLinkSnapshot(linkFixture))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				r.Histogram("scrape_rt_nanos", "rt", LatencyBuckets()).Observe(100)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, path := range []string{"/metrics", "/debug/overlay", "/debug/cluster", "/debug/trace", "/debug/links"} {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					resp, err := http.Get("http://" + srv.Addr() + path)
					if err != nil {
						t.Errorf("%s: %v", path, err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", path, resp.StatusCode)
						return
					}
				}
			}(path)
		}
	}
	wg.Wait()
	close(stop)
	writers.Wait()
}

func TestHTTPContentTypes(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r, nil,
		WithClusterSnapshot(clusterFixture), WithTraceSnapshot(traceFixture),
		WithLinkSnapshot(linkFixture))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":       "text/plain; version=0.0.4; charset=utf-8",
		"/debug/overlay": "application/json",
		"/debug/cluster": "application/json",
		"/debug/trace":   "application/json",
		"/debug/links":   "application/json",
	} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("Content-Type"); got != want {
			t.Errorf("%s content-type = %q, want %q", path, got, want)
		}
	}
}

// TestHTTPProfilingToggle pins the pprof opt-in: absent by default (404),
// mounted with WithProfiling(true).
func TestHTTPProfilingToggle(t *testing.T) {
	t.Parallel()
	off, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	resp, err := http.Get("http://" + off.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}

	on, err := Serve("127.0.0.1:0", NewRegistry(), nil, WithProfiling(true))
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	resp, err = http.Get("http://" + on.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index: status %d body %q", resp.StatusCode, body)
	}
}

// TestHTTPGracefulClose pins the shutdown semantics: Close returns without
// error while the listener stops accepting, and a scrape completed just
// before Close is never truncated.
func TestHTTPGracefulClose(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("close_hits_total", "hits").Add(5)
	srv, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(body), "close_hits_total 5") {
		t.Fatalf("scrape before close: err=%v body=%s", err, body)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("scrape after close succeeded")
	}
}

// TestClusterSnapshotGolden pins the /debug/cluster JSON schema: field
// names are API, consumed by dashboards and the acceptance tests.
func TestClusterSnapshotGolden(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0", NewRegistry(), nil, WithClusterSnapshot(clusterFixture))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/cluster")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	var snap ClusterSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	want := clusterFixture()
	if snap.StaleAfterMillis != want.StaleAfterMillis || snap.SlowestID != want.SlowestID ||
		len(snap.Nodes) != 2 || len(snap.Generations) != 2 {
		t.Fatalf("round trip = %+v", snap)
	}
	if n := snap.Node(2); n == nil || n.Fresh || n.GenRanks[1] != 0 {
		t.Fatalf("node 2 = %+v", n)
	}
	if g := snap.Generations[1]; len(g.StragglerIDs) != 1 || g.StragglerIDs[0] != 2 {
		t.Fatalf("generation 1 = %+v", g)
	}
	for _, key := range []string{
		`"stale_after_ms"`, `"slowest_id"`, `"fleet_delay_p50_ns"`, `"delay_p99_ns"`,
		`"overhead_permille"`, `"straggler_ids"`, `"gen_ranks"`, `"age_ms"`, `"fresh"`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("cluster JSON missing %s:\n%s", key, raw)
		}
	}
}

// TestTraceSnapshotGolden pins the /debug/trace JSON schema: field names
// are API, consumed by dashboards and the ncast-sim -trace JSONL dump.
func TestTraceSnapshotGolden(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0", NewRegistry(), nil, WithTraceSnapshot(traceFixture))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var snap TraceSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if snap.SampledGenerations != 2 || snap.MaxHopDepth != 2 ||
		len(snap.Generations) != 2 || len(snap.Depths) != 2 {
		t.Fatalf("round trip = %+v", snap)
	}
	g := snap.Generations[0]
	if g.TraceID != 11 || g.MaxHop != 2 || g.Nodes != 2 || g.WorstPathNanos != 900 {
		t.Fatalf("generation 0 = %+v", g)
	}
	if len(g.Tree) != 2 || g.Tree[1].Depth != 2 || g.Tree[1].Nodes[0].ID != 2 {
		t.Fatalf("generation 0 tree = %+v", g.Tree)
	}
	if d := snap.Depths[1]; d.Depth != 2 || d.InnovationPermille != 750 {
		t.Fatalf("depth row = %+v", d)
	}
	for _, key := range []string{
		`"sampled_generations"`, `"max_hop_depth"`, `"trace_id"`, `"max_hop"`,
		`"worst_path_ns"`, `"tree"`, `"depth"`, `"innovation_permille"`,
		`"mean_hop_latency_ns"`, `"first_arrival_ns"`, `"last_arrival_ns"`, `"emit_ns"`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("trace JSON missing %s:\n%s", key, raw)
		}
	}
	// Without the option the endpoint stays unmounted.
	bare, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	resp, err = http.Get("http://" + bare.Addr() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unmounted /debug/trace: status %d, want 404", resp.StatusCode)
	}
}

// TestLinkSnapshotGolden pins the /debug/links JSON schema: field names
// are API, consumed by dashboards and the ncast-sim -timeline link rows.
func TestLinkSnapshotGolden(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0", NewRegistry(), nil, WithLinkSnapshot(linkFixture))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/links")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var snap LinkSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(snap.Edges) != 2 || snap.StaleAfterMillis != 60_000 {
		t.Fatalf("round trip = %+v", snap)
	}
	e := snap.Edges[0]
	if e.Reporter != 1 || e.Peer != "n2" || e.PeerID != 2 || !e.Fresh ||
		e.LossPermille != 100 || e.RTTEwmaNanos != 2_000_000 || e.RTTSamples != 5 {
		t.Fatalf("edge 0 = %+v", e)
	}
	if snap.Worst == nil || snap.Worst.FreshEdges != 2 ||
		snap.Worst.WorstPeer != "n1" || snap.Worst.WorstPeerID != 1 ||
		snap.Worst.WorstPeerLossPermille != 100 {
		t.Fatalf("worst digest = %+v", snap.Worst)
	}
	for _, key := range []string{
		`"stale_after_ms"`, `"reporter"`, `"reporter_addr"`, `"peer"`, `"peer_id"`,
		`"loss_permille"`, `"rtt_ewma_ns"`, `"jitter_ns"`, `"rtt_samples"`,
		`"innovation_permille"`, `"worst"`, `"worst_peer"`, `"worst_edges"`,
		`"max_rtt_peer"`, `"age_ms"`, `"fresh"`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("links JSON missing %s:\n%s", key, raw)
		}
	}
	// Without the option the endpoint stays unmounted.
	bare, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	resp, err = http.Get("http://" + bare.Addr() + "/debug/links")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unmounted /debug/links: status %d, want 404", resp.StatusCode)
	}
}

func TestQuantile(t *testing.T) {
	t.Parallel()
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	s := []float64{5, 1, 3, 2, 4}
	if q := Quantile(s, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(s, 0.5); q != 3 {
		t.Fatalf("q50 = %v", q)
	}
	if q := Quantile(s, 1); q != 5 {
		t.Fatalf("q100 = %v", q)
	}
	// The input must not be reordered.
	if s[0] != 5 || s[4] != 4 {
		t.Fatalf("input mutated: %v", s)
	}
}
