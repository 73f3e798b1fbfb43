package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ncast/internal/obs"
	"ncast/internal/protocol"
	"ncast/internal/swarm"
	"ncast/internal/transport"
)

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return cond()
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// yield is the open-loop generator's sleep. Timers on the sandbox this
// benchmark was sized for fire no finer than about 1.1 ms — nine joins
// apart at 8000 joins/s — so sleeping would quantize both the lateness
// and the poll that detects completions. Yielding instead keeps the
// generator runnable but lets every other runnable goroutine go first,
// so it takes only processor time nothing else wanted.
func yield(d time.Duration) {
	if d > 3*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
		return
	}
	runtime.Gosched()
}

// churnCycle runs the control plane alone: a real tracker and a swarm of
// protocol-correct virtual nodes on one in-memory fabric, no data plane.
// Phases: a flash crowd of hellos at t=0, an open-loop stream of joins
// onto the populated overlay, (last cycle of a run only) a silent crash
// of a share of the rows that the lease sweep must reclaim, and a
// good-bye burst of every remaining row. The tracker's invariants and
// the population census are checked after each phase.
func (w spec) churnCycle(seed int64, tr *tracer, noObs, crash bool) cycleResult {
	session := fmt.Sprintf("%s/%d", w.name, seed)
	openN := int(float64(w.openRate) * w.openFor.Seconds())
	total := w.crowd + openN
	res := cycleResult{layer: map[string]float64{}}

	t0 := time.Now()
	root := tr.open(session, "session", "ncast", 0, t0)
	defer func() { tr.close(root, time.Now()) }()
	net := transport.NewNetwork(transport.WithSeed(seed))
	defer net.Close()
	tep, err := net.Endpoint("tracker")
	if err != nil {
		res.fail(1, "tracker endpoint: %v", err)
		return res
	}
	var reg *obs.Registry
	if !noObs {
		reg = obs.NewRegistry()
	}
	transport.Instrument(tep, obs.NewTransportMetrics(reg, "tracker"))
	tracker, err := protocol.NewTracker(tep, nil, protocol.TrackerConfig{
		K: w.k, D: w.d, Seed: serverSeed,
		Session: protocol.SessionParams{
			FieldBits: 8, GenSize: w.genSize, PacketSize: w.pktSize,
			ContentLen: 4 * w.genSize * w.pktSize,
		},
		LeaseTimeout: w.lease,
		// Every welcome and redirect of a shard's nodes funnels through
		// one outbox; size it for the whole flash crowd so none is
		// dropped and left to the hello retry.
		OutboxDepth: (total/w.shards + 64) * (w.d + 2),
		Obs:         obs.NewTrackerMetrics(reg),
	})
	if err != nil {
		res.fail(1, "tracker: %v", err)
		return res
	}
	sw, err := swarm.New(swarm.Config{
		N: total, Shards: w.shards, Network: net, TrackerAddr: "tracker", Seed: seed,
		// Admitting the crowd takes about a second; a shorter retry clock
		// would turn every queued joiner into a duplicate hello.
		HelloRetry:  2 * time.Second,
		EndpointBuf: total/w.shards + 1024,
	})
	if err != nil {
		res.fail(1, "swarm: %v", err)
		return res
	}
	ctx, cancel := context.WithCancel(context.Background())
	trackerDone := make(chan struct{})
	go func() { defer close(trackerDone); _ = tracker.Run(ctx) }()
	sw.Start(ctx)
	defer func() {
		cancel()
		sw.Close()
		net.Close()
		<-trackerDone
	}()
	start := time.Now()
	res.setup = start.Sub(t0)
	tr.add(session, "session.new", "ncast", root, t0, start)

	check := func(phase string, want int) {
		res.attempted++
		if err := tracker.CheckInvariants(); err != nil {
			res.fail(1, "%s: invariants: %v", phase, err)
		} else if n := tracker.NumNodes(); n != want {
			res.fail(1, "%s: census: tracker has %d rows, want %d", phase, n, want)
		}
	}

	// Flash crowd: every hello is due at t=0, so a viewer's wait is the
	// time from t=0 until it is admitted. Polling the admitted count
	// every millisecond reads that distribution off directly: whoever
	// was admitted since the last poll waited that long.
	sw.JoinRange(0, w.crowd)
	admitted, joinDur := 0, time.Duration(0)
	for admitted < w.crowd && joinDur < w.deadline {
		time.Sleep(time.Millisecond)
		joinDur = time.Since(start)
		for n := sw.JoinedCount(); admitted < n; admitted++ {
			res.delaysMs = append(res.delaysMs, float64(joinDur)/1e6)
		}
	}
	res.attempted += w.crowd
	res.ops += admitted
	if admitted < w.crowd {
		res.fail(w.crowd-admitted, "flash crowd: %d of %d admitted", admitted, w.crowd)
	}
	tr.add(session, "churn.join_burst", "protocol", root, start, start.Add(joinDur))
	check("flash crowd", admitted)

	// Open loop onto the populated overlay. Latency runs from each
	// hello's due time to the poll that first sees the node joined, so
	// it carries the generator's lateness. This is a layer metric, not an
	// end-to-end one: see README.md for why it is too unsteady to bound.
	ol := openLoop{interval: time.Second / time.Duration(w.openRate), n: openN,
		maxNap: 100 * time.Microsecond, now: time.Now, sleep: yield}
	olStart := time.Now()
	olSpan := tr.open(session, "churn.open_loop", "protocol", root, olStart)
	pending := make([]int, 0, 256)
	waits := make([]float64, 0, openN)
	issue := func(i int) {
		sw.Join(w.crowd + i)
		pending = append(pending, i)
	}
	poll := func(now time.Time) int {
		keep := pending[:0]
		for _, i := range pending {
			if sw.State(w.crowd+i) != swarm.StateJoined {
				keep = append(keep, i)
				continue
			}
			due := ol.due(olStart, i)
			waits = append(waits, float64(now.Sub(due))/1e6)
			tr.add(session, "client.join", "protocol", olSpan, due, now)
		}
		pending = keep
		return len(pending)
	}
	lateness := ol.run(olStart, issue, poll, w.deadline)
	tr.close(olSpan, time.Now())
	res.attempted += openN
	if len(pending) > 0 {
		res.fail(len(pending), "open loop: %d of %d joins not admitted", len(pending), openN)
	}
	population := sw.JoinedCount()
	check("open loop", population)
	late := make([]float64, len(lateness))
	for i, l := range lateness {
		late[i] = float64(l) / 1e6
	}
	res.layer["swarm.gen_lateness_ms"], _ = tail(late, 99)
	res.layer["swarm.open_join_p50_ms"], _ = tail(waits, 50)
	res.layer["swarm.open_join_p99_ms"], _ = tail(waits, 99)
	if reg != nil {
		t := time.Now()
		_ = reg.Snapshot()
		_ = tracker.ClusterSnapshot()
		res.layer["obs.snapshot_ms"] = float64(time.Since(t)) / 1e6
	}

	// Silent crash: no good-bye, so only the lease sweep can find out.
	if crash {
		victims := rand.New(rand.NewSource(seed)).Perm(total)[:int(float64(total)*w.crashShare)]
		crashed := 0
		for _, i := range victims {
			if sw.State(i) == swarm.StateJoined {
				sw.Crash(i)
				crashed++
			}
		}
		cs := time.Now()
		res.attempted += crashed
		ok := waitFor(5*w.lease, func() bool { return tracker.NumNodes() == population-crashed })
		res.layer["protocol.repair_s"] = time.Since(cs).Seconds()
		tr.add(session, "churn.crash_repair", "protocol", root, cs, time.Now())
		if !ok {
			res.fail(crashed, "crash: lease sweep left %d rows, want %d",
				tracker.NumNodes(), population-crashed)
		}
		population -= crashed
		check("crash", population)
	}

	// Good-bye burst of every remaining row.
	ls := time.Now()
	acked := sw.Counts().Leaves
	for i := 0; i < total; i++ {
		sw.Leave(i)
	}
	waitFor(w.deadline, func() bool {
		return int(sw.Counts().Leaves-acked) == population && tracker.NumNodes() == 0
	})
	leaveDur := time.Since(ls)
	left := int(sw.Counts().Leaves - acked)
	res.attempted += population
	res.ops += left
	if left < population {
		res.fail(population-left, "good-bye burst: %d of %d acked", left, population)
	}
	tr.add(session, "churn.leave_burst", "protocol", root, ls, ls.Add(leaveDur))
	check("good-bye burst", 0)

	res.elapsed = joinDur + leaveDur
	res.layer["protocol.joins_per_s"] = float64(admitted) / joinDur.Seconds()
	res.layer["protocol.leaves_per_s"] = float64(left) / leaveDur.Seconds()
	if reg != nil {
		snap := obs.OverlaySnapshot{Metrics: reg.Snapshot()}
		res.frames = snap.SumMetric("ncast_transport_frames_recv_total")
		if p := snap.Metric("ncast_tracker_admit_batch_size"); p != nil && p.Count > 0 {
			res.layer["protocol.admit_batch_mean"] = p.Sum / float64(p.Count)
		}
	}
	return res
}
