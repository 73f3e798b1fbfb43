package swarm

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ncast/internal/core"
	"ncast/internal/obs"
	"ncast/internal/protocol"
	"ncast/internal/sim"
	"ncast/internal/transport"
)

// DrillConfig parameterises one hostile-world scenario drill. Every drill
// builds a fresh in-memory Network, a real protocol.Tracker, and a swarm
// of DrillConfig.N virtual nodes, then applies its scenario and evaluates
// pass/fail gates against the tracker's own views (CheckInvariants,
// Health, ClusterSnapshot, Topology).
type DrillConfig struct {
	N      int
	Shards int
	Seed   int64
	// K, D are the overlay parameters (threads, default degree).
	K, D int
	// LeaseTimeout drives the tracker's liveness sweep; the churn and
	// adversarial drills depend on it to detect silent crashes.
	LeaseTimeout time.Duration
	// StatsInterval asks nodes for telemetry at this cadence (zero
	// disables reporting; the heterogeneous drill requires it on).
	StatsInterval time.Duration
	// OutboxDepth sizes the tracker's per-peer outboxes. Flash-crowd
	// welcomes for thousands of virtual nodes funnel through one shard
	// outbox, so this should be >= N/Shards (RunDrill defaults it).
	OutboxDepth int
	// Timeout bounds each drill phase (join wave, expiry wave, rejoin
	// wave). Zero means 60s.
	Timeout time.Duration
	// AdmissionP99 is the flash-crowd gate bound on the hello→welcome
	// p99 latency. Zero means 5s (generous: it includes hello retries
	// when the first wave saturates queues).
	AdmissionP99 time.Duration
	// CrashFrac is the fraction crashed by the churn drill (default 0.2)
	// and the adversarial band fraction (default 0.05 — e08's P).
	CrashFrac float64
	// Tick is the swarm timer-wheel granularity (default 5ms).
	Tick time.Duration
	// HelloRetry overrides the swarm's hello-retry interval (zero keeps
	// the 500ms default). Large fleets should set it near the expected
	// join-wave duration: when admitting N nodes takes seconds, a 500ms
	// retry clock turns every still-queued joiner into a dup-hello storm.
	HelloRetry time.Duration
	// ConnSample caps how many nodes the adversarial drill's
	// connectivity measurements flow-solve (default 1024; <0 forces the
	// exact sweep). Exact measurement is one max-flow per node — O(N²·d)
	// over the fleet — which is tractable at drill-matrix sizes but not
	// at 100k rows.
	ConnSample int
}

func (c DrillConfig) withDefaults() DrillConfig {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.K <= 0 {
		c.K = 16
	}
	if c.D <= 0 {
		c.D = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.AdmissionP99 <= 0 {
		c.AdmissionP99 = 5 * time.Second
	}
	if c.OutboxDepth <= 0 {
		// A join wave funnels one welcome plus ~D parent redirects per
		// admitted node through the destination shard's outbox; size for
		// the full wave so flash-crowd welcomes aren't dropped (a dropped
		// welcome still heals via hello retry, but costs 500ms of
		// admission latency).
		depth := (c.N/c.Shards + 64) * (c.D + 2)
		if depth < 256 {
			depth = 256
		}
		c.OutboxDepth = depth
	}
	if c.ConnSample == 0 {
		c.ConnSample = 1024
	}
	return c
}

// Gate is one pass/fail criterion with its observed evidence.
type Gate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// DrillResult is one scenario's outcome: the gate list plus the scalar
// metrics worth trending in BENCH_control.json.
type DrillResult struct {
	Name           string             `json:"name"`
	Nodes          int                `json:"nodes"`
	Shards         int                `json:"shards"`
	Seed           int64              `json:"seed"`
	DurationMillis int64              `json:"duration_ms"`
	Passed         bool               `json:"passed"`
	Gates          []Gate             `json:"gates"`
	Metrics        map[string]float64 `json:"metrics,omitempty"`
}

func (r *DrillResult) gate(name string, pass bool, format string, args ...interface{}) {
	r.Gates = append(r.Gates, Gate{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
	if !pass {
		r.Passed = false
	}
}

func (r *DrillResult) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// drillEnv is the live apparatus: real tracker + swarm on one fabric.
type drillEnv struct {
	net     *transport.Network
	tracker *protocol.Tracker
	swarm   *Swarm
	cancel  context.CancelFunc
}

func startEnv(cfg DrillConfig, degree func(int) int, rate func(int) int) (*drillEnv, error) {
	net := transport.NewNetwork(transport.WithSeed(cfg.Seed))
	tep, err := net.Endpoint("tracker")
	if err != nil {
		return nil, err
	}
	tr, err := protocol.NewTracker(tep, nil, protocol.TrackerConfig{
		K:    cfg.K,
		D:    cfg.D,
		Seed: cfg.Seed,
		Session: protocol.SessionParams{
			FieldBits:  8,
			GenSize:    16,
			PacketSize: 64,
			ContentLen: 4 * 16 * 64, // 4 generations of synthetic progress
		},
		LeaseTimeout:  cfg.LeaseTimeout,
		StatsInterval: cfg.StatsInterval,
		OutboxDepth:   cfg.OutboxDepth,
	})
	if err != nil {
		net.Close()
		return nil, err
	}
	sw, err := New(Config{
		N:           cfg.N,
		Shards:      cfg.Shards,
		Network:     net,
		TrackerAddr: "tracker",
		Seed:        cfg.Seed,
		Degree:      degree,
		Rate:        rate,
		Tick:        cfg.Tick,
		HelloRetry:  cfg.HelloRetry,
		// The endpoint buffer must ride out a full shard's welcome burst.
		EndpointBuf: cfg.N/cfg.Shards + 1024,
	})
	if err != nil {
		net.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	go tr.Run(ctx) //nolint:errcheck // exits on cancel
	sw.Start(ctx)
	return &drillEnv{net: net, tracker: tr, swarm: sw, cancel: cancel}, nil
}

func (e *drillEnv) stop() {
	e.cancel()
	e.swarm.Close()
	e.net.Close()
}

// drillRand seeds the scenario-level randomness (victim selection);
// distinct from the swarm's per-node stream so drills stay reproducible.
func drillRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x5eed))
}

// waitUntil polls cond until it holds or the deadline passes, reporting
// whether it held. The poll interval self-throttles to ~3x the
// condition's own cost (floored at 5ms): an expensive condition — say a
// ClusterSnapshot copy over 100k nodes — must not busy-spin the core
// the tracker needs to make the condition true.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		t0 := time.Now()
		if cond() {
			return true
		}
		condDur := time.Since(t0)
		if time.Now().After(deadline) {
			return cond()
		}
		sleep := 3 * condDur
		if sleep < 5*time.Millisecond {
			sleep = 5 * time.Millisecond
		}
		time.Sleep(sleep)
	}
}

// RunFlashCrowd drills the flash-crowd join: the full population hellos
// at once (PR 5's batched admission under maximum pressure). Gates: every
// node admitted within the timeout, hello→welcome p99 under the bound,
// tracker invariants clean, overlay census matches, and — the tentpole
// property — goroutine count sublinear in N.
func RunFlashCrowd(cfg DrillConfig) (DrillResult, error) {
	cfg = cfg.withDefaults()
	res := DrillResult{Name: "flash-crowd", Nodes: cfg.N, Shards: cfg.Shards, Seed: cfg.Seed, Passed: true}
	baseGoroutines := runtime.NumGoroutine()
	env, err := startEnv(cfg, nil, nil)
	if err != nil {
		return res, err
	}
	defer env.stop()

	start := time.Now()
	env.swarm.JoinRange(0, cfg.N)
	peak := 0
	allIn := waitUntil(cfg.Timeout, func() bool {
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
		return env.swarm.JoinedCount() == cfg.N
	})
	joinDur := time.Since(start)
	res.DurationMillis = joinDur.Milliseconds()

	counts := env.swarm.Counts()
	res.gate("all-admitted", allIn, "%d/%d joined in %v (retries=%d)",
		env.swarm.JoinedCount(), cfg.N, joinDur.Round(time.Millisecond), counts.HelloRetries)
	lats := env.swarm.AdmissionLatencies()
	p50 := time.Duration(obs.Quantile(lats, 0.50))
	p99 := time.Duration(obs.Quantile(lats, 0.99))
	res.gate("admission-p99", p99 <= cfg.AdmissionP99, "p50=%v p99=%v bound=%v over %d samples",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), cfg.AdmissionP99, len(lats))
	invErr := env.tracker.CheckInvariants()
	res.gate("tracker-invariants", invErr == nil, "%v", invErr)
	snap := env.tracker.ClusterSnapshot()
	census := snap.Overlay != nil && snap.Overlay.Nodes == cfg.N && snap.Overlay.Failed == 0
	res.gate("overlay-census", census, "overlay=%+v", snap.Overlay)
	// Sublinearity bound: the swarm is O(shards) goroutines and the
	// tracker O(peer keys) outbox workers; N/50 of headroom means even a
	// 1k run fails if someone reintroduces per-node goroutines.
	bound := baseGoroutines + 8*cfg.Shards + 64 + cfg.N/50
	res.gate("goroutines-sublinear", peak <= bound, "peak=%d bound=%d (base=%d, N=%d)",
		peak, bound, baseGoroutines, cfg.N)

	res.metric("join_seconds", joinDur.Seconds())
	res.metric("admission_p50_ns", float64(p50))
	res.metric("admission_p99_ns", float64(p99))
	res.metric("hello_retries", float64(counts.HelloRetries))
	res.metric("goroutines_peak", float64(peak))
	res.metric("joins_per_second", float64(cfg.N)/joinDur.Seconds())
	return res, nil
}

// RunChurnRejoin drills mobile-style churn: a fraction of the fleet
// crashes silently (no goodbye), the tracker's lease sweep must reclaim
// every orphaned row, and the crashed nodes then rejoin as fresh rows.
// Gates: expiry reclaims exactly the crashed rows, every rejoiner gets a
// fresh (higher) id, the final census matches, invariants stay clean.
func RunChurnRejoin(cfg DrillConfig) (DrillResult, error) {
	cfg = cfg.withDefaults()
	if cfg.LeaseTimeout <= 0 {
		return DrillResult{}, fmt.Errorf("swarm: churn drill requires LeaseTimeout")
	}
	frac := cfg.CrashFrac
	if frac <= 0 {
		frac = 0.2
	}
	res := DrillResult{Name: "churn-rejoin", Nodes: cfg.N, Shards: cfg.Shards, Seed: cfg.Seed, Passed: true}
	env, err := startEnv(cfg, nil, nil)
	if err != nil {
		return res, err
	}
	defer env.stop()
	start := time.Now()

	env.swarm.JoinRange(0, cfg.N)
	if !waitUntil(cfg.Timeout, func() bool { return env.swarm.JoinedCount() == cfg.N }) {
		res.gate("join-wave", false, "only %d/%d joined", env.swarm.JoinedCount(), cfg.N)
		return res, nil
	}
	res.gate("join-wave", true, "%d joined", cfg.N)

	// Crash a deterministic pseudo-random subset, remembering old ids.
	m := int(float64(cfg.N) * frac)
	if m < 1 {
		m = 1
	}
	rng := drillRand(cfg.Seed)
	victims := rng.Perm(cfg.N)[:m]
	oldIDs := make(map[int]uint64, m)
	for _, i := range victims {
		oldIDs[i] = env.swarm.NodeID(i)
		env.swarm.Crash(i)
	}
	// The sweep must reclaim every orphaned row — this is the failure
	// detector for crashed bottom clips that the complaint protocol can
	// never catch.
	expiryBudget := cfg.Timeout + 2*cfg.LeaseTimeout
	swept := waitUntil(expiryBudget, func() bool { return env.tracker.NumNodes() == cfg.N-m })
	res.gate("lease-expiry", swept, "tracker rows=%d want=%d after crashing %d",
		env.tracker.NumNodes(), cfg.N-m, m)
	sweepDur := time.Since(start)

	// Rejoin everyone; each must come back as a brand-new row.
	for _, i := range victims {
		env.swarm.Join(i)
	}
	back := waitUntil(cfg.Timeout, func() bool {
		return env.swarm.JoinedCount() == cfg.N && env.tracker.NumNodes() == cfg.N
	})
	counts := env.swarm.Counts()
	res.gate("rejoin-wave", back, "joined=%d tracker=%d rejoins=%d",
		env.swarm.JoinedCount(), env.tracker.NumNodes(), counts.Rejoins)
	fresh := 0
	for _, i := range victims {
		if id := env.swarm.NodeID(i); id != 0 && id != oldIDs[i] {
			fresh++
		}
	}
	res.gate("fresh-rows", fresh == m, "%d/%d rejoiners got fresh ids", fresh, m)
	invErr := env.tracker.CheckInvariants()
	res.gate("tracker-invariants", invErr == nil, "%v", invErr)

	res.DurationMillis = time.Since(start).Milliseconds()
	res.metric("crashed", float64(m))
	res.metric("sweep_seconds", sweepDur.Seconds())
	res.metric("rejoins", float64(counts.Rejoins))
	res.metric("lease_renewals", float64(counts.Leases))
	return res, nil
}

// RunHeterogeneous drills a mixed fleet: degrees spread over 1..4 and
// synthetic decode rates spread 1..8, with telemetry on. Gates: the
// tracker's degree census matches what was requested, the telemetry plane
// sees a fresh fleet, progress advances, invariants stay clean.
func RunHeterogeneous(cfg DrillConfig) (DrillResult, error) {
	cfg = cfg.withDefaults()
	if cfg.StatsInterval <= 0 {
		return DrillResult{}, fmt.Errorf("swarm: heterogeneous drill requires StatsInterval")
	}
	res := DrillResult{Name: "heterogeneous", Nodes: cfg.N, Shards: cfg.Shards, Seed: cfg.Seed, Passed: true}
	maxDeg := 4
	if maxDeg > cfg.K {
		maxDeg = cfg.K
	}
	degree := func(i int) int { return 1 + i%maxDeg }
	rate := func(i int) int { return 1 + i%8 }
	env, err := startEnv(cfg, degree, rate)
	if err != nil {
		return res, err
	}
	defer env.stop()
	start := time.Now()

	env.swarm.JoinRange(0, cfg.N)
	if !waitUntil(cfg.Timeout, func() bool { return env.swarm.JoinedCount() == cfg.N }) {
		res.gate("join-wave", false, "only %d/%d joined", env.swarm.JoinedCount(), cfg.N)
		return res, nil
	}
	res.gate("join-wave", true, "%d joined", cfg.N)

	want := make(map[int]int)
	for i := 0; i < cfg.N; i++ {
		want[degree(i)]++
	}
	health := env.tracker.Health()
	degMatch := len(health.DegreeDist) == len(want)
	for d, n := range want {
		if health.DegreeDist[d] != n {
			degMatch = false
		}
	}
	res.gate("degree-census", degMatch, "want=%v got=%v", want, health.DegreeDist)

	// Let two reporting intervals elapse, then the cluster view must be
	// fresh and show progress (synthetic ranks advancing at mixed rates).
	fresh, reporting := 0, 0
	progressed := 0
	waitUntil(cfg.Timeout, func() bool {
		snap := env.tracker.ClusterSnapshot()
		fresh, reporting, progressed = 0, 0, 0
		for _, n := range snap.Nodes {
			reporting++
			if n.Fresh {
				fresh++
			}
			if n.Rank > 0 {
				progressed++
			}
		}
		return reporting >= cfg.N*9/10 && fresh >= reporting*9/10 && progressed >= reporting/2
	})
	res.gate("telemetry-fresh", reporting >= cfg.N*9/10 && fresh >= reporting*9/10,
		"reporting=%d fresh=%d of %d nodes", reporting, fresh, cfg.N)
	res.gate("progress-advancing", progressed >= reporting/2,
		"%d/%d reporters advanced rank", progressed, reporting)
	invErr := env.tracker.CheckInvariants()
	res.gate("tracker-invariants", invErr == nil, "%v", invErr)

	res.DurationMillis = time.Since(start).Milliseconds()
	counts := env.swarm.Counts()
	res.metric("stats_reports", float64(counts.StatsSent))
	res.metric("completes", float64(counts.Completes))
	res.metric("fresh_nodes", float64(fresh))
	return res, nil
}

// RunAdversarialBatch ports the e08 adversarial model to the live stack:
// a contiguous band of rows (coordinated arrivals occupying adjacent rows
// of M, the §5 attack) fails at the same instant. The drill measures the
// pre-repair damage exactly as e08 does (connectivity over the topology
// with the band marked failed), then requires the tracker's lease sweep
// to reclaim every row and restore full connectivity for the survivors.
func RunAdversarialBatch(cfg DrillConfig) (DrillResult, error) {
	cfg = cfg.withDefaults()
	if cfg.LeaseTimeout <= 0 {
		return DrillResult{}, fmt.Errorf("swarm: adversarial drill requires LeaseTimeout")
	}
	frac := cfg.CrashFrac
	if frac <= 0 {
		frac = 0.05
	}
	res := DrillResult{Name: "adversarial-batch", Nodes: cfg.N, Shards: cfg.Shards, Seed: cfg.Seed, Passed: true}
	env, err := startEnv(cfg, nil, nil)
	if err != nil {
		return res, err
	}
	defer env.stop()
	start := time.Now()

	env.swarm.JoinRange(0, cfg.N)
	if !waitUntil(cfg.Timeout, func() bool { return env.swarm.JoinedCount() == cfg.N }) {
		res.gate("join-wave", false, "only %d/%d joined", env.swarm.JoinedCount(), cfg.N)
		return res, nil
	}
	res.gate("join-wave", true, "%d joined", cfg.N)

	// The adversarial band: in append mode rows sit in admission order,
	// so the m nodes with the middle ids occupy a contiguous band of M.
	type pair struct {
		idx int
		id  uint64
	}
	pairs := make([]pair, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		pairs = append(pairs, pair{idx: i, id: env.swarm.NodeID(i)})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].id < pairs[b].id })
	m := int(float64(cfg.N) * frac)
	if m < 1 {
		m = 1
	}
	band := pairs[cfg.N/2-m/2 : cfg.N/2-m/2+m]

	// Pre-repair damage, measured as e08 measures it: the band marked
	// failed on the topology the tracker held at the kill instant.
	// Sampled above ConnSample nodes — exact per-node max-flow is
	// O(N²·d) and intractable at fleet scale.
	top := env.tracker.Topology()
	for _, p := range band {
		if gi, ok := top.Index[core.NodeID(p.id)]; ok {
			top.Working[gi] = false
		}
	}
	damage := sim.MeasureConnectivitySample(top, cfg.ConnSample, cfg.Seed)
	var pLoss float64
	if damage.Working > 0 {
		pLoss = 1 - float64(damage.FullCount)/float64(damage.Working)
	}

	// Kill the band at one instant.
	for _, p := range band {
		env.swarm.Crash(p.idx)
	}
	expiryBudget := cfg.Timeout + 2*cfg.LeaseTimeout
	swept := waitUntil(expiryBudget, func() bool { return env.tracker.NumNodes() == cfg.N-m })
	recovery := time.Since(start)
	res.gate("band-reclaimed", swept, "tracker rows=%d want=%d after killing band of %d",
		env.tracker.NumNodes(), cfg.N-m, m)
	// No orphaned rows: the census and bookkeeping agree post-repair.
	invErr := env.tracker.CheckInvariants()
	res.gate("tracker-invariants", invErr == nil, "%v", invErr)
	health := env.tracker.Health()
	res.gate("no-orphans", health.Nodes == cfg.N-m && health.Failed == 0,
		"nodes=%d failed=%d want=%d/0", health.Nodes, health.Failed, cfg.N-m)
	// Post-repair the survivors must be back at full connectivity — the
	// paper's robustness claim for the repair procedure.
	after := sim.MeasureConnectivitySample(env.tracker.Topology(), cfg.ConnSample, cfg.Seed+1)
	res.gate("connectivity-restored", after.Working > 0 && after.FullCount == after.Working,
		"full=%d/%d (pre-repair damage: PLoss=%.3f meanLossFrac=%.4f)",
		after.FullCount, after.Working, pLoss, damage.MeanLossFrac)

	res.DurationMillis = time.Since(start).Milliseconds()
	res.metric("band", float64(m))
	res.metric("preprepair_ploss", pLoss)
	res.metric("preprepair_mean_loss_frac", damage.MeanLossFrac)
	res.metric("recovery_seconds", recovery.Seconds())
	return res, nil
}
