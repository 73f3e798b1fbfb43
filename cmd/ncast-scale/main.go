// ncast-scale is the control-plane capacity harness: it measures whether
// hello/good-bye/repair really cost O(d·log N) — the paper's §3 constant
// message cost made concrete — by driving millions of synthetic membership
// ops against the curtain at two population sizes and comparing per-op
// latency tails. A second phase drives a live in-process tracker (real
// wire frames over the in-memory transport, batched admission, outboxes)
// to measure end-to-end control-plane throughput.
//
// Usage:
//
//	go run ./cmd/ncast-scale -o BENCH_control.json
//	go run ./cmd/ncast-scale -quick          # CI-sized smoke run
//
// The JSON report records, per population size: ops/sec, p50/p99/max
// latency per op kind, and resident curtain bytes. The acceptance gate is
// the adjacent-pair p99 ratios staying near 2x per population decade —
// per-op cost must not scale with N. (The smallest population fits in
// L3 while the largest lives in DRAM, so the pair that crosses that
// cliff carries a one-time memory-latency step on top; see DESIGN.md.)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ncast"
	"ncast/internal/core"
	"ncast/internal/obs"
	"ncast/internal/protocol"
	"ncast/internal/transport"
)

func main() {
	var (
		out         = flag.String("o", "BENCH_control.json", "report output path")
		rowsFlag    = flag.String("rows", "10000,100000,1000000", "comma-separated population sizes for the core phase")
		ops         = flag.Int("ops", 1_000_000, "steady-state ops per core phase")
		k           = flag.Int("k", 32, "server threads")
		d           = flag.Int("d", 4, "node degree")
		seed        = flag.Int64("seed", 1, "workload seed")
		mode        = flag.String("mode", "append", "row insert mode: append or random")
		trackerPop  = flag.Int("tracker-nodes", 10_000, "population for the live-tracker phase (0 skips it)")
		trackerOps  = flag.Int("tracker-ops", 50_000, "churn ops for the live-tracker phase")
		tracePop    = flag.Int("trace-nodes", 24, "receivers for the dissemination-trace phase (0 skips it)")
		traceLoss   = flag.Float64("trace-loss", 0.05, "per-frame loss for the dissemination-trace phase")
		swarmPop    = flag.Int("swarm-nodes", 100_000, "virtual nodes for the swarm drill phase (0 skips it)")
		swarmShards = flag.Int("swarm-shards", 16, "event-loop shards carrying the swarm phase")
		quick       = flag.Bool("quick", false, "CI-sized smoke run (shrinks every knob)")
		checkEveryN = flag.Int("check-every", 0, "run CheckInvariants every N core ops (0 disables)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *quick {
		*rowsFlag = "1000,20000"
		*ops = 50_000
		*trackerPop = 1_000
		*trackerOps = 5_000
		*tracePop = 12
		*swarmPop = 2_000
		*swarmShards = 8
	}

	insertMode := core.InsertAppend
	if *mode == "random" {
		insertMode = core.InsertRandom
	}

	var sizes []int
	for _, s := range strings.Split(*rowsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			log.Fatalf("bad -rows entry %q", s)
		}
		sizes = append(sizes, n)
	}

	report := Report{
		Config: Config{
			K: *k, D: *d, Mode: *mode, Seed: *seed, Ops: *ops, Rows: sizes,
		},
		GoVersion: runtime.Version(),
	}
	for _, n := range sizes {
		log.Printf("core phase: N=%d, %d steady-state ops", n, *ops)
		report.CorePhases = append(report.CorePhases,
			runCorePhase(n, *ops, *k, *d, *seed, insertMode, *checkEveryN))
	}
	if len(report.CorePhases) >= 2 {
		pairRatio := func(lo, hi CorePhase) P99Ratio {
			return P99Ratio{
				RowsLow:  lo.Rows,
				RowsHigh: hi.Rows,
				Hello:    ratio(hi.Hello.P99Nanos, lo.Hello.P99Nanos),
				Goodbye:  ratio(hi.Goodbye.P99Nanos, lo.Goodbye.P99Nanos),
				Repair:   ratio(hi.Repair.P99Nanos, lo.Repair.P99Nanos),
			}
		}
		// Adjacent pairs separate the one-time cache-residency cliff (the
		// state outgrowing L3 somewhere between the sizes) from genuine
		// per-op scaling; the overall first-to-last ratio is kept last.
		for i := 1; i < len(report.CorePhases); i++ {
			report.P99Ratios = append(report.P99Ratios,
				pairRatio(report.CorePhases[i-1], report.CorePhases[i]))
		}
		if len(report.CorePhases) > 2 {
			report.P99Ratios = append(report.P99Ratios,
				pairRatio(report.CorePhases[0], report.CorePhases[len(report.CorePhases)-1]))
		}
	}
	if *trackerPop > 0 {
		log.Printf("tracker phase: %d nodes, %d churn ops over in-memory transport", *trackerPop, *trackerOps)
		tp, err := runTrackerPhase(*trackerPop, *trackerOps, *k, *d, *seed)
		if err != nil {
			log.Fatalf("tracker phase: %v", err)
		}
		report.Tracker = tp
	}
	if *tracePop > 0 {
		log.Printf("trace phase: %d receivers, loss=%v, full dissemination tracing", *tracePop, *traceLoss)
		tr, err := runTracePhase(*tracePop, *traceLoss, *seed)
		if err != nil {
			log.Fatalf("trace phase: %v", err)
		}
		report.Trace = tr
	}
	// The swarm phase writes its (possibly red) results into the report
	// before the run fails, so gate regressions still land in the JSON.
	var swarmErr error
	if *swarmPop > 0 {
		log.Printf("swarm phase: %d virtual nodes on %d shards, four scenario drills", *swarmPop, *swarmShards)
		report.Swarm, swarmErr = runSwarmPhase(*swarmPop, *swarmShards, *k, *d, *seed)
	}

	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s", raw)
	log.Printf("wrote %s", *out)
	if swarmErr != nil {
		log.Fatalf("swarm phase: %v", swarmErr)
	}
}

// Report is the BENCH_control.json schema.
type Report struct {
	Config     Config         `json:"config"`
	GoVersion  string         `json:"go_version"`
	CorePhases []CorePhase    `json:"core_phases"`
	P99Ratios  []P99Ratio     `json:"p99_ratios,omitempty"`
	Tracker    *TrackerReport `json:"tracker,omitempty"`
	Trace      *TraceReport   `json:"trace,omitempty"`
	Swarm      *SwarmReport   `json:"swarm,omitempty"`
}

// Config echoes the knobs the run used.
type Config struct {
	K    int    `json:"k"`
	D    int    `json:"d"`
	Mode string `json:"mode"`
	Seed int64  `json:"seed"`
	Ops  int    `json:"ops"`
	Rows []int  `json:"rows"`
}

// CorePhase is one population size's steady-state measurement.
type CorePhase struct {
	Rows         int     `json:"rows"`
	Ops          int     `json:"ops"`
	BuildSeconds float64 `json:"build_seconds"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	Hello        OpStats `json:"hello"`
	Goodbye      OpStats `json:"goodbye"`
	Repair       OpStats `json:"repair"`
	StateBytes   uint64  `json:"state_bytes"`
	BytesPerRow  float64 `json:"bytes_per_row"`
}

// OpStats summarises one op kind's latency samples.
type OpStats struct {
	Count    int   `json:"count"`
	P50Nanos int64 `json:"p50_ns"`
	P90Nanos int64 `json:"p90_ns"`
	P99Nanos int64 `json:"p99_ns"`
	MaxNanos int64 `json:"max_ns"`
}

// P99Ratio is the acceptance gate: tail latency of the larger population
// over the smaller. Flat (≤2x) means per-op cost no longer scales with N.
type P99Ratio struct {
	RowsLow  int     `json:"rows_low"`
	RowsHigh int     `json:"rows_high"`
	Hello    float64 `json:"hello"`
	Goodbye  float64 `json:"goodbye"`
	Repair   float64 `json:"repair"`
}

// TrackerReport is the live-tracker phase: real frames, batched admission.
type TrackerReport struct {
	Nodes           int     `json:"nodes"`
	JoinOpsPerSec   float64 `json:"join_ops_per_sec"`
	ChurnOps        int     `json:"churn_ops"`
	ChurnOpsPerSec  float64 `json:"churn_ops_per_sec"`
	HelloMeanNanos  float64 `json:"hello_mean_ns"`
	GoodbyeMeanNano float64 `json:"goodbye_mean_ns"`
	BatchCount      uint64  `json:"admit_batches"`
	BatchMeanSize   float64 `json:"admit_batch_mean"`
}

func ratio(hi, lo int64) float64 {
	if lo <= 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

func (s *OpStats) fill(samples []int64) {
	s.Count = len(samples)
	if len(samples) == 0 {
		return
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	q := func(p float64) int64 {
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	s.P50Nanos = q(0.50)
	s.P90Nanos = q(0.90)
	s.P99Nanos = q(0.99)
	s.MaxNanos = samples[len(samples)-1]
}

// heapBytes returns the live heap after a forced collection.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runCorePhase grows a curtain to n rows, then runs a steady-state mix of
// 40% hello / 40% good-bye / 20% fail+repair at stable population,
// timing every operation.
func runCorePhase(n, ops, k, d int, seed int64, mode core.InsertMode, checkEvery int) CorePhase {
	before := heapBytes()
	c, err := core.New(k, d, rand.New(rand.NewSource(seed)), core.WithInsertMode(mode))
	if err != nil {
		log.Fatal(err)
	}
	alive := make([]core.NodeID, 0, n+1)
	buildStart := time.Now()
	for i := 0; i < n; i++ {
		alive = append(alive, c.Join())
	}
	build := time.Since(buildStart)
	state := heapBytes() - before

	wl := rand.New(rand.NewSource(seed ^ 0x5ca1e))
	hello := make([]int64, 0, ops/2)
	goodbye := make([]int64, 0, ops/2)
	repair := make([]int64, 0, ops/4)
	// pick removes and returns a random live id in O(1) (order-free
	// swap-remove; the curtain itself maintains row order).
	pick := func() core.NodeID {
		i := wl.Intn(len(alive))
		id := alive[i]
		alive[i] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
		return id
	}
	// doOp runs one random membership op, recording its latency when asked.
	doOp := func(op int, record bool) {
		switch r := wl.Intn(100); {
		case r < 40 || len(alive) == 0: // hello
			t0 := time.Now()
			id := c.Join()
			if record {
				hello = append(hello, int64(time.Since(t0)))
			}
			alive = append(alive, id)
		case r < 80: // good-bye
			id := pick()
			t0 := time.Now()
			if err := c.Leave(id); err != nil {
				log.Fatalf("leave: %v", err)
			}
			if record {
				goodbye = append(goodbye, int64(time.Since(t0)))
			}
		default: // failure + repair
			id := pick()
			t0 := time.Now()
			if err := c.Fail(id); err != nil {
				log.Fatalf("fail: %v", err)
			}
			if err := c.Repair(id); err != nil {
				log.Fatalf("repair: %v", err)
			}
			if record {
				repair = append(repair, int64(time.Since(t0)))
			}
		}
		if checkEvery > 0 && op%checkEvery == 0 {
			if err := c.CheckInvariants(); err != nil {
				log.Fatalf("invariants after op %d: %v", op, err)
			}
		}
	}
	// The measured loop runs with the collector off, from a freshly marked
	// heap: a concurrent mark cycle over hundreds of MB of live rows lands
	// in the sampled op tails (on a single-core runner it preempts the
	// mutator outright) and records the collector, not the matrix
	// transaction under test. The churn mix allocates far less than the
	// live set, so the pause costs memory, not fidelity. A short unrecorded
	// warmup lets the allocator and caches reach steady state first.
	runtime.GC()
	oldGC := debug.SetGCPercent(-1)
	warmup := ops / 10
	if warmup > 100_000 {
		warmup = 100_000
	}
	for op := 0; op < warmup; op++ {
		doOp(op, false)
	}
	start := time.Now()
	for op := 0; op < ops; op++ {
		doOp(op, true)
	}
	elapsed := time.Since(start)
	debug.SetGCPercent(oldGC)

	p := CorePhase{
		Rows:         n,
		Ops:          ops,
		BuildSeconds: build.Seconds(),
		OpsPerSec:    float64(ops) / elapsed.Seconds(),
		StateBytes:   state,
		BytesPerRow:  float64(state) / float64(n),
	}
	p.Hello.fill(hello)
	p.Goodbye.fill(goodbye)
	p.Repair.fill(repair)
	if err := c.CheckInvariants(); err != nil {
		log.Fatalf("invariants after phase: %v", err)
	}
	return p
}

// joined is one admission observed by a node's drainer goroutine.
type joined struct {
	addr string
	id   uint64
}

// runTrackerPhase drives a live tracker over the in-memory transport.
// Every synthetic node has its own endpoint and sends its own hellos and
// good-byes, exactly like real clients, so welcomes and acks ride each
// node's private outbox (the control plane's per-peer queues) instead of
// funneling through one bottleneck address. A drainer goroutine per node
// consumes redirects and surfaces welcomes/acks to the coordinator. All
// frames are real wire frames through Run's batched-admission loop.
func runTrackerPhase(pop, ops, k, d int, seed int64) (*TrackerReport, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewNetwork()
	defer net.Close()

	trackerEp, err := net.Endpoint("tracker")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	tracker, err := protocol.NewTracker(trackerEp, nil, protocol.TrackerConfig{
		K: k, D: d, Seed: seed,
		Session: protocol.SessionParams{FieldBits: 8, GenSize: 8, PacketSize: 64, ContentLen: 512},
		Obs:     obs.NewTrackerMetrics(reg),
	})
	if err != nil {
		return nil, err
	}
	go tracker.Run(ctx)

	// joinedCh carries admissions (welcome received at the node), freed
	// carries addresses whose good-bye was acked and may re-join.
	joinedCh := make(chan joined, pop)
	freed := make(chan string, pop)
	var acks atomic.Int64
	eps := make(map[string]transport.Endpoint, pop)
	for i := 0; i < pop; i++ {
		addr := fmt.Sprintf("n%d", i)
		ep, err := net.Endpoint(addr)
		if err != nil {
			return nil, err
		}
		eps[addr] = ep
		go func(addr string, ep transport.Endpoint) {
			for {
				_, frame, err := ep.Recv(ctx)
				if err != nil {
					return
				}
				typ, body, err := protocol.SplitControl(frame)
				if err != nil {
					continue
				}
				switch typ {
				case protocol.MsgWelcome:
					var w protocol.Welcome
					if protocol.UnmarshalControl(typ, body, &w) == nil {
						select {
						case joinedCh <- joined{addr: addr, id: w.ID}:
						case <-ctx.Done():
							return
						}
					}
				case protocol.MsgGoodbyeAck:
					acks.Add(1)
					select {
					case freed <- addr:
					case <-ctx.Done():
						return
					}
				}
			}
		}(addr, ep)
	}

	// Each send carries a deadline, so a flood waits for room in the
	// tracker's queue instead of being dropped after transport.QueueWait.
	sendFrom := func(addr string, typ protocol.MsgType, payload interface{}) error {
		frame, err := protocol.EncodeControl(typ, payload)
		if err != nil {
			return err
		}
		sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
		defer scancel()
		return eps[addr].Send(sctx, "tracker", frame)
	}

	// Phase A: admit the whole population.
	joinStart := time.Now()
	ids := make(map[string]uint64, pop)
	admitted := make([]string, 0, pop)
	for i := 0; i < pop; i++ {
		addr := fmt.Sprintf("n%d", i)
		if err := sendFrom(addr, protocol.MsgHello, protocol.Hello{Addr: addr}); err != nil {
			return nil, err
		}
	}
	for len(ids) < pop {
		select {
		case j := <-joinedCh:
			ids[j.addr] = j.id
			admitted = append(admitted, j.addr)
		case <-time.After(60 * time.Second):
			return nil, fmt.Errorf("join phase stalled at %d/%d", len(ids), pop)
		}
	}
	joinElapsed := time.Since(joinStart)

	// Phase B: churn — alternate good-bye of a random admitted node and a
	// re-join on an address freed by an acked good-bye.
	wl := rand.New(rand.NewSource(seed ^ 0xc412))
	churnStart := time.Now()
	goodbyes, hellos := 0, 0
	for op := 0; op < ops; op++ {
		drainJoins(joinedCh, ids, &admitted)
		if op%2 == 0 && len(admitted) > 0 {
			i := wl.Intn(len(admitted))
			addr := admitted[i]
			admitted[i] = admitted[len(admitted)-1]
			admitted = admitted[:len(admitted)-1]
			if err := sendFrom(addr, protocol.MsgGoodbye, protocol.Goodbye{ID: ids[addr]}); err != nil {
				return nil, err
			}
			delete(ids, addr)
			goodbyes++
		} else {
			var addr string
			select {
			case addr = <-freed:
			case <-time.After(30 * time.Second):
				return nil, fmt.Errorf("churn stalled waiting for a freed address at op %d", op)
			}
			if err := sendFrom(addr, protocol.MsgHello, protocol.Hello{Addr: addr}); err != nil {
				return nil, err
			}
			hellos++
		}
	}
	// Drain: every good-bye acked, every hello welcomed.
	deadline := time.Now().Add(60 * time.Second)
	for int(acks.Load()) < goodbyes || len(ids) < pop-goodbyes+hellos {
		drainJoins(joinedCh, ids, &admitted)
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("churn drain stalled: %d/%d acks, %d/%d ids",
				acks.Load(), goodbyes, len(ids), pop-goodbyes+hellos)
		}
		time.Sleep(200 * time.Microsecond)
	}
	churnElapsed := time.Since(churnStart)

	if err := tracker.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("tracker invariants after churn: %w", err)
	}

	rep := &TrackerReport{
		Nodes:          pop,
		JoinOpsPerSec:  float64(pop) / joinElapsed.Seconds(),
		ChurnOps:       goodbyes + hellos,
		ChurnOpsPerSec: float64(goodbyes+hellos) / churnElapsed.Seconds(),
	}
	for _, p := range reg.Snapshot() {
		switch p.Name {
		case "ncast_tracker_hello_nanos":
			if p.Count > 0 {
				rep.HelloMeanNanos = p.Sum / float64(p.Count)
			}
		case "ncast_tracker_goodbye_nanos":
			if p.Count > 0 {
				rep.GoodbyeMeanNano = p.Sum / float64(p.Count)
			}
		case "ncast_tracker_admit_batch_size":
			rep.BatchCount = p.Count
			if p.Count > 0 {
				rep.BatchMeanSize = p.Sum / float64(p.Count)
			}
		}
	}
	return rep, nil
}

// TraceReport is the dissemination-trace phase: a real coded broadcast
// with every generation traced, reporting how deep the overlay's forwarding
// tree actually ran and how innovation decayed per hop.
type TraceReport struct {
	Nodes              int              `json:"nodes"`
	Loss               float64          `json:"loss"`
	SampledGenerations int              `json:"sampled_generations"`
	MaxHopDepth        int              `json:"max_hop_depth"`
	WorstPathNanos     int64            `json:"worst_path_ns,omitempty"`
	HopDepthDist       []obs.TraceDepth `json:"hop_depth_dist"`
}

// runTracePhase runs a small in-process broadcast with dissemination
// tracing on every generation and records the fleet hop-depth distribution.
func runTracePhase(nodes int, loss float64, seed int64) (*TraceReport, error) {
	content := make([]byte, 64<<10)
	rand.New(rand.NewSource(seed)).Read(content)

	cfg := ncast.DefaultConfig()
	cfg.K, cfg.D = 8, 2 // narrow curtain so the overlay grows real depth
	cfg.Seed = seed
	cfg.TraceRate = 1
	cfg.StatsInterval = 200 * time.Millisecond
	cfg.ComplaintTimeout = 300 * time.Millisecond

	opts := []ncast.SessionOption{ncast.WithNetworkSeed(seed)}
	if loss > 0 {
		opts = append(opts, ncast.WithLoss(loss))
	}
	sess, err := ncast.NewSession(content, cfg, opts...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	clients := make([]*ncast.Client, 0, nodes)
	for i := 0; i < nodes; i++ {
		c, err := sess.AddClient(ctx)
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	for i, c := range clients {
		if err := c.Wait(ctx); err != nil {
			return nil, fmt.Errorf("trace phase node %d incomplete at %.1f%%: %w", i, 100*c.Progress(), err)
		}
	}
	// Hop spans ride the periodic stats reports; poll until multi-hop
	// structure shows up (or the deadline passes).
	snap := sess.TraceSnapshot()
	for (snap.SampledGenerations == 0 || snap.MaxHopDepth < 2) && ctx.Err() == nil {
		time.Sleep(100 * time.Millisecond)
		snap = sess.TraceSnapshot()
	}
	rep := &TraceReport{
		Nodes:              nodes,
		Loss:               loss,
		SampledGenerations: snap.SampledGenerations,
		MaxHopDepth:        snap.MaxHopDepth,
		HopDepthDist:       snap.Depths,
	}
	for _, g := range snap.Generations {
		if g.WorstPathNanos > rep.WorstPathNanos {
			rep.WorstPathNanos = g.WorstPathNanos
		}
	}
	return rep, nil
}

// drainJoins consumes any queued admissions without blocking.
func drainJoins(ch <-chan joined, ids map[string]uint64, admitted *[]string) {
	for {
		select {
		case j := <-ch:
			ids[j.addr] = j.id
			*admitted = append(*admitted, j.addr)
		default:
			return
		}
	}
}
