package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ncast"
	"ncast/internal/obs"
)

// spec is one named workload: the inputs the benchmark generates and the
// fixed session parameters it runs them under. The names are the
// contract later issues cite; see README.md for why each exists.
type spec struct {
	name string
	// loop states how load is offered, printed with the results.
	loop string

	// Data-plane workloads.
	k, d             int
	genSize, pktSize int
	contentBytes     int
	receivers        int
	sourceInterval   time.Duration
	loss             float64
	latency          time.Duration
	datagram         bool
	sockets          bool // real loopback sockets instead of the in-memory fabric
	decodeWorkers    int

	// Control-plane workload (join-churn): crowd hellos at once, then
	// openRate joins/s for openFor onto the populated overlay, then a
	// good-bye burst; the last cycle of a run also crashes crashShare of
	// the rows silently and waits for the lease sweep.
	churn      bool
	crowd      int
	openRate   int
	openFor    time.Duration
	lease      time.Duration
	shards     int
	crashShare float64

	// deadline bounds one cycle's timed region; an operation that has
	// not completed by then counts as failed.
	deadline time.Duration
}

const mib = 1 << 20

// specs returns the five workloads at the given scale. "tiny" shrinks
// every population and content so the whole set runs in a few seconds
// under go test; its numbers mean nothing.
func specs(scale string) []spec {
	full := []spec{
		{name: "bulk-clean", loop: "closed loop, 8 receivers, source back-pressured",
			k: 16, d: 4, genSize: 16, pktSize: 1024, contentBytes: 32 * mib, receivers: 8},
		{name: "tiny-packets", loop: "closed loop, 8 receivers, source back-pressured",
			k: 16, d: 4, genSize: 8, pktSize: 64, contentBytes: 2 * mib, receivers: 8},
		{name: "udp-lossy", loop: "closed loop, 3 receivers over loopback UDP+TCP, 5% datagram loss",
			k: 8, d: 2, genSize: 16, pktSize: 1024, contentBytes: 8 * mib, receivers: 3,
			loss: 0.05, datagram: true, sockets: true, decodeWorkers: 2},
		{name: "stream-paced", loop: "open loop, source paced at one round per 1 ms, 12 receivers, 5% loss, 1 ms latency",
			k: 16, d: 4, genSize: 16, pktSize: 1024, contentBytes: 4 * mib, receivers: 12,
			sourceInterval: time.Millisecond, loss: 0.05, latency: time.Millisecond, datagram: true},
		{name: "join-churn", loop: "burst of 20000 joins, then open loop at 8000 joins/s, then burst of leaves",
			churn: true, k: 32, d: 4, genSize: 16, pktSize: 64,
			crowd: 20000, openRate: 8000, openFor: time.Second,
			lease: 2 * time.Second, shards: 2, crashShare: 0.10},
	}
	for i := range full {
		full[i].deadline = 30 * time.Second
	}
	if scale != "tiny" {
		return full
	}
	for i := range full {
		w := &full[i]
		w.deadline = 20 * time.Second
		if w.churn {
			w.crowd, w.openRate, w.openFor = 600, 2000, 200*time.Millisecond
			w.lease = 400 * time.Millisecond
			continue
		}
		w.contentBytes /= 64
		if w.receivers > 4 {
			w.receivers = 4
		}
	}
	return full
}

func (w spec) generations() int {
	per := w.genSize * w.pktSize
	return (w.contentBytes + per - 1) / per
}

// cycleResult is what one session cycle — set-up, timed region, output
// check, teardown — contributes to a run.
type cycleResult struct {
	setup   time.Duration // everything before the timed region
	elapsed time.Duration // the timed region
	// ops counts completed and verified operations; attempted and failed
	// are in the same unit (a generation delivered to a receiver on data
	// workloads, a join or leave on join-churn).
	ops, attempted, failed int
	delaysMs               []float64 // one sample per operation that has a delay
	failures               []string
	// frames is the number of data frames receivers took in (control
	// messages on join-churn): the denominator of allocs_per_frame.
	frames float64
	// layer holds the counters read at the layer boundaries this cycle.
	layer map[string]float64
}

func (r *cycleResult) fail(n int, format string, args ...interface{}) {
	r.failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// seededBytes is the content of a cycle: the same seed gives the same
// bytes.
func seededBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// receiver is what the benchmark needs from a client, satisfied by both
// the in-memory and the socket client.
type receiver interface {
	Completed() <-chan struct{}
	Content() ([]byte, error)
}

// host hides which of the two public constructors a data workload runs
// on, so one cycle function serves both. snapshots takes what an operator
// scrapes: every registry's Snapshot plus the server's ClusterSnapshot
// (taken for its cost only).
type host struct {
	join      func(ctx context.Context, i int, sink ncast.GenSink) (receiver, error)
	snapshots func() []obs.OverlaySnapshot
	close     func()
}

func (w spec) config(noObs bool) ncast.Config {
	cfg := ncast.DefaultConfig()
	cfg.K, cfg.D = w.k, w.d
	cfg.GenSize, cfg.PacketSize = w.genSize, w.pktSize
	cfg.Seed = serverSeed
	cfg.SourceInterval = w.sourceInterval
	cfg.DecodeWorkers = w.decodeWorkers
	cfg.DisableObs = noObs
	if w.datagram {
		ncast.WithDatagramData()(&cfg)
	}
	if w.sockets {
		cfg.DataLoss = w.loss
	}
	return cfg
}

func (w spec) newHost(content []byte, seed int64, noObs bool) (host, error) {
	cfg := w.config(noObs)
	if w.sockets {
		srv, err := ncast.ListenAndServe("127.0.0.1:0", content, cfg)
		if err != nil {
			return host{}, err
		}
		var mu sync.Mutex
		var clients []*ncast.RemoteClient
		return host{
			join: func(ctx context.Context, i int, sink ncast.GenSink) (receiver, error) {
				ccfg := cfg
				ccfg.Seed = seed + int64(i) + 1 // seeds this client's loss coin
				c, err := ncast.Dial(ctx, srv.Addr(), "127.0.0.1:0", ccfg,
					ncast.WithClientSeed(seed+int64(i)+1), ncast.WithClientGenEvents(sink))
				if err != nil {
					return nil, err
				}
				mu.Lock()
				clients = append(clients, c)
				mu.Unlock()
				return c, nil
			},
			snapshots: func() []obs.OverlaySnapshot {
				_ = srv.ClusterSnapshot()
				out := []obs.OverlaySnapshot{srv.Snapshot()}
				for _, c := range clients {
					out = append(out, c.Snapshot())
				}
				return out
			},
			close: func() {
				for _, c := range clients {
					c.Close()
				}
				srv.Close()
			},
		}, nil
	}
	opts := []ncast.SessionOption{ncast.WithNetworkSeed(seed)}
	if w.loss > 0 {
		opts = append(opts, ncast.WithLoss(w.loss))
	}
	if w.latency > 0 {
		opts = append(opts, ncast.WithLatency(w.latency))
	}
	s, err := ncast.NewSession(content, cfg, opts...)
	if err != nil {
		return host{}, err
	}
	return host{
		join: func(ctx context.Context, i int, sink ncast.GenSink) (receiver, error) {
			return s.AddClient(ctx, ncast.WithClientSeed(seed+int64(i)+1), ncast.WithClientGenEvents(sink))
		},
		snapshots: func() []obs.OverlaySnapshot {
			_ = s.ClusterSnapshot()
			return []obs.OverlaySnapshot{s.Snapshot()}
		},
		close: func() { s.Close() },
	}, nil
}

// genLog is one receiver's generation-lifecycle sink: decode delays
// always, first-packet and decode times too when the cycle is traced.
type genLog struct {
	mu     sync.Mutex
	traced bool
	delays []float64
	first  map[uint32]time.Time
	decode []genSpan
}

type genSpan struct {
	gen        uint32
	start, end time.Time
}

func (g *genLog) sink(e ncast.GenEvent) {
	switch e.Phase {
	case obs.PhaseFirstPacket:
		if g.traced {
			g.mu.Lock()
			g.first[e.Gen] = e.At
			g.mu.Unlock()
		}
	case obs.PhaseDecoded:
		g.mu.Lock()
		if e.DelayNanos > 0 {
			g.delays = append(g.delays, float64(e.DelayNanos)/1e6)
		}
		if g.traced {
			g.decode = append(g.decode, genSpan{gen: e.Gen, start: g.first[e.Gen], end: e.At})
		}
		g.mu.Unlock()
	}
}

// dataCycle runs one broadcast: generate content from the seed, start the
// server, join the receivers, wait for every download, check every
// receiver's bytes against the source's SHA-256.
func (w spec) dataCycle(seed int64, tr *tracer, noObs bool) cycleResult {
	session := fmt.Sprintf("%s/%d", w.name, seed)
	gens := w.generations()
	res := cycleResult{attempted: w.receivers * gens, layer: map[string]float64{}}

	t0 := time.Now()
	content := seededBytes(seed, w.contentBytes)
	want := sha256.Sum256(content)
	tNew := time.Now()
	h, err := w.newHost(content, seed, noObs)
	if err != nil {
		res.fail(res.attempted, "start: %v", err)
		return res
	}
	defer h.close()
	start := time.Now()
	res.setup = start.Sub(t0)
	root := tr.open(session, "session", "ncast", 0, t0)
	defer func() { tr.close(root, time.Now()) }()
	tr.add(session, "session.new", "ncast", root, tNew, start)

	ctx, cancel := context.WithDeadline(context.Background(), start.Add(w.deadline))
	defer cancel()
	recvs := make([]receiver, w.receivers)
	logs := make([]*genLog, w.receivers)
	joined := make([]time.Time, w.receivers)
	for i := range recvs {
		logs[i] = &genLog{traced: tr != nil}
		if tr != nil {
			logs[i].first = map[uint32]time.Time{}
		}
		js := time.Now()
		r, err := h.join(ctx, i, logs[i].sink)
		joined[i] = time.Now()
		if err != nil {
			res.fail(gens, "receiver %d join: %v", i, err)
			continue
		}
		recvs[i] = r
		tr.add(session, "client.join", "ncast", root, js, joined[i])
	}
	done := make([]time.Time, w.receivers)
	var wg sync.WaitGroup
	for i, r := range recvs {
		if r == nil {
			continue
		}
		wg.Add(1)
		go func(i int, r receiver) {
			defer wg.Done()
			select {
			case <-r.Completed():
				done[i] = time.Now()
			case <-ctx.Done():
			}
		}(i, r)
	}
	wg.Wait()
	end := time.Now()
	res.elapsed = end.Sub(start)

	for i, r := range recvs {
		if r == nil {
			continue
		}
		if done[i].IsZero() {
			res.fail(gens, "receiver %d missed the %v deadline", i, w.deadline)
			continue
		}
		got, err := r.Content()
		if err != nil || sha256.Sum256(got) != want {
			res.fail(gens, "receiver %d content mismatch (err=%v)", i, err)
			continue
		}
		res.ops += gens
		res.delaysMs = append(res.delaysMs, logs[i].delays...)
		if tr != nil {
			dl := tr.add(session, "client.download", "ncast", root, joined[i], done[i])
			for _, g := range logs[i].decode {
				tr.add(session, "gen.decode", "ncast", dl, g.start, g.end)
			}
		}
	}
	if !noObs {
		t := time.Now()
		snaps := h.snapshots()
		res.layer["obs.snapshot_ms"] = float64(time.Since(t)) / 1e6
		w.readLayers(snaps, &res)
	}
	return res
}

// readLayers reads, from the public Snapshot registries, the counters
// that sit at layer boundaries inside a running session.
func (w spec) readLayers(snaps []obs.OverlaySnapshot, res *cycleResult) {
	var received, innovative, admitSum, admitN, rounds float64
	for i := range snaps {
		s := &snaps[i]
		received += s.SumMetric("ncast_node_received_total")
		innovative += s.SumMetric("ncast_node_innovative_total")
		rounds += s.SumMetric("ncast_source_rounds_total")
		if p := s.Metric("ncast_tracker_admit_batch_size"); p != nil {
			admitSum += p.Sum
			admitN += float64(p.Count)
		}
	}
	res.frames = received
	if received > 0 {
		res.layer["protocol.innovation_ratio"] = innovative / received
	}
	res.layer["protocol.source_rounds"] = rounds
	if admitN > 0 {
		res.layer["protocol.admit_batch_mean"] = admitSum / admitN
	}
}
