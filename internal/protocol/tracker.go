package protocol

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ncast/internal/core"
	"ncast/internal/obs"
	"ncast/internal/transport"
)

// TrackerConfig parameterises the central authority.
type TrackerConfig struct {
	// K is the number of server threads; D the default node degree.
	K, D int
	// Session carries the coding parameters announced to nodes.
	Session SessionParams
	// InsertMode selects §3 append or §5 random row insertion.
	InsertMode core.InsertMode
	// Seed drives the curtain's randomness.
	Seed int64
	// LeaseTimeout, when positive, enables tracker-side liveness leases:
	// a node silent for longer than this is presumed crashed and spliced
	// out via the §3 Fail+Repair path. This closes the failure-detection
	// gap the complaint protocol leaves open — a crashed bottom clip has
	// no children, so nobody ever complains about it and its row would
	// dangle in M forever. Nodes are told (via Welcome.LeaseMillis) to
	// renew at a quarter of this timeout, and any control message also
	// renews, so only a truly silent node expires. Zero disables the sweep.
	LeaseTimeout time.Duration
	// SendDeadline bounds each control-plane send attempt to one peer
	// (write deadline on stream transports, queue wait on the in-memory
	// fabric). Zero means the 2-second default.
	SendDeadline time.Duration
	// OutboxDepth bounds each per-peer control outbox (zero means the
	// default 64). Outboxes are keyed by transport.PeerKey, so a swarm
	// endpoint multiplexing thousands of virtual nodes shares one outbox;
	// flash-crowd welcomes funnel through it and need a deeper queue than
	// the one-node-per-address default.
	OutboxDepth int
	// StatsInterval, when positive, asks every node (via Welcome.StatsMillis)
	// to send one MsgStatsReport per interval; the tracker aggregates the
	// reports into the ClusterSnapshot fleet view. Zero disables telemetry
	// reporting entirely — no node sends reports, ClusterSnapshot stays
	// membership-only.
	StatsInterval time.Duration
	// Obs, when non-nil, instruments the tracker: control-plane counters,
	// the overlay gauges, the trace ring, and the dissemination-tracing and
	// ncast_link_* histograms fed as hop spans and link scorecards arrive
	// on stats reports.
	Obs *obs.TrackerMetrics
}

// Tracker is the §3 "server (or some other centralized authority)": it
// owns the matrix M and performs the hello, good-bye, and repair
// procedures, issuing stream redirections to the affected nodes and to the
// data source.
type Tracker struct {
	ep     transport.Endpoint
	cfg    TrackerConfig
	source *Source

	mu        sync.Mutex
	curtain   *core.Curtain
	addrOf    map[core.NodeID]string
	idOf      map[string]core.NodeID
	completed map[core.NodeID]bool
	lastSeen  map[core.NodeID]time.Time
	reports   map[core.NodeID]nodeReport
	genIDs    []uint32 // canonical generation order (sessionGenIDs)
	events    chan TrackerEvent
	// traces assembles hop reports into dissemination trees; it locks
	// itself, so ingest and snapshot run outside t.mu.
	traces *obs.TraceCollector

	// outMu guards the per-peer control outboxes (see sendControl).
	outMu    sync.Mutex
	outboxes map[string]chan outMsg
}

// outMsg is one queued control frame with its full destination address;
// outboxes are keyed by transport.PeerKey, so one worker may serve many
// virtual destinations behind the same transport peer.
type outMsg struct {
	to    string
	frame []byte
}

// nodeReport is one node's latest telemetry report and when it arrived,
// plus the link scorecards of the report it replaced: the fleet link
// matrix derives goodput from the byte delta between the two.
type nodeReport struct {
	report    StatsReport
	at        time.Time
	prevLinks []obs.LinkReport
	prevAt    time.Time
}

// linkRow is the report's view as one reporter of the fleet link matrix.
func (nr *nodeReport) linkRow(addr string) obs.LinkRow {
	return obs.LinkRow{
		Reporter:     nr.report.ID,
		ReporterAddr: addr,
		At:           nr.at,
		Links:        nr.report.Links,
		PrevAt:       nr.prevAt,
		Prev:         nr.prevLinks,
	}
}

// TrackerEvent reports membership and completion changes for observers.
type TrackerEvent struct {
	Kind string // "join", "leave", "repair", "complete"
	ID   core.NodeID
	Addr string
}

// NewTracker builds a tracker bound to ep. The source, when non-nil, is
// notified of redirections on server-owned threads (it shares ep), and
// takes its paced share from the overlay's degree cfg.D: call NewTracker
// before the source's Run.
func NewTracker(ep transport.Endpoint, source *Source, cfg TrackerConfig) (*Tracker, error) {
	mode := cfg.InsertMode
	if mode == 0 {
		mode = core.InsertAppend
	}
	curtain, err := core.New(cfg.K, cfg.D, rand.New(rand.NewSource(cfg.Seed)), core.WithInsertMode(mode))
	if err != nil {
		return nil, err
	}
	params, err := cfg.Session.Params()
	if err != nil {
		return nil, err
	}
	genIDs, err := sessionGenIDs(cfg.Session, params)
	if err != nil {
		return nil, err
	}
	if source != nil {
		source.share = (source.params.GenSize + cfg.D - 1) / cfg.D
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewTrackerMetrics(nil)
	}
	t := &Tracker{
		ep:        ep,
		cfg:       cfg,
		source:    source,
		curtain:   curtain,
		addrOf:    make(map[core.NodeID]string),
		idOf:      make(map[string]core.NodeID),
		completed: make(map[core.NodeID]bool),
		lastSeen:  make(map[core.NodeID]time.Time),
		reports:   make(map[core.NodeID]nodeReport),
		genIDs:    genIDs,
		traces:    obs.NewTraceCollector(0, cfg.Obs.Trace),
		outboxes:  make(map[string]chan outMsg),
		events:    make(chan TrackerEvent, 1024),
	}
	cfg.Obs.OnCollect(t.refreshGauges)
	return t, nil
}

// Events exposes the tracker's event stream.
//
// Drop/buffer policy: the channel is buffered (capacity 1024) and the
// tracker never blocks on it — when the buffer is full because the
// consumer is slow or absent, new events are silently dropped so the
// control plane keeps running. Consumers needing a lossless record
// should instead read the trace ring via TrackerConfig.Obs, which
// overwrites oldest-first rather than dropping newest.
func (t *Tracker) Events() <-chan TrackerEvent { return t.events }

// NumNodes returns the current overlay population.
func (t *Tracker) NumNodes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.curtain.NumNodes()
}

// CompletedCount returns how many nodes reported full decode.
func (t *Tracker) CompletedCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.completed)
}

// CheckInvariants verifies the curtain's §3 structural invariants plus
// the tracker's own bookkeeping (addr and id maps are mutual inverses and
// cover exactly the live rows). It is O(N·d) and intended for tests and
// debug assertions.
func (t *Tracker) CheckInvariants() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.curtain.CheckInvariants(); err != nil {
		return err
	}
	if len(t.addrOf) != t.curtain.NumNodes() || len(t.idOf) != t.curtain.NumNodes() {
		return fmt.Errorf("protocol: addr maps track %d/%d nodes, curtain has %d",
			len(t.addrOf), len(t.idOf), t.curtain.NumNodes())
	}
	for id, addr := range t.addrOf {
		if !t.curtain.Contains(id) {
			return fmt.Errorf("protocol: addr map holds departed node %d", id)
		}
		if back, ok := t.idOf[addr]; !ok || back != id {
			return fmt.Errorf("protocol: addr maps disagree for node %d (%q -> %d)", id, addr, back)
		}
	}
	for id := range t.completed {
		if !t.curtain.Contains(id) {
			return fmt.Errorf("protocol: completed entry for departed node %d", id)
		}
	}
	for id := range t.lastSeen {
		if !t.curtain.Contains(id) {
			return fmt.Errorf("protocol: lease entry for departed node %d", id)
		}
	}
	return nil
}

// admissionBatchMax bounds how many hellos one matrix transaction admits.
// A flash crowd beyond the cap is simply split into consecutive batches.
const admissionBatchMax = 256

// pendingHello is one queued admission awaiting the next batch flush.
type pendingHello struct {
	from string
	h    Hello
}

// recvBatches is how many receive batches circulate between Run's pump and
// its dispatch loop: together they hold one admission batch of frames, so
// the pump reads ahead while the loop admits a hello burst.
const recvBatches = admissionBatchMax / transport.RecvBatchLen

// Run processes control messages until the context is cancelled or the
// endpoint closes. It always returns a non-nil error explaining why.
//
// Hellos are admitted in batches: a burst of pending hellos that arrived
// while the tracker was busy is coalesced into one matrix transaction
// (one lock hold) instead of paying per-message locking. Per-hello
// semantics are unchanged — each hello still gets its own Welcome,
// redirects and join event, in arrival order — and any non-hello message
// flushes the queue first, so it observes exactly the matrix it would
// have under one-at-a-time dispatch.
func (t *Tracker) Run(ctx context.Context) error {
	// The lease sweep runs on this loop, between dispatch rounds, so every
	// change to M and the redirects it causes come from one goroutine: two
	// splice-outs that redirect the same parent cannot enqueue their
	// redirects in the opposite order from their matrix changes.
	var sweep <-chan time.Time
	if t.cfg.LeaseTimeout > 0 {
		ticker := time.NewTicker(max(t.cfg.LeaseTimeout/4, time.Millisecond))
		defer ticker.Stop()
		sweep = ticker.C
	}
	// The pump fills a free batch in one RecvBatch and hands it over in
	// one channel operation; the loop hands it back once every frame in it
	// is ingested and released. Both channels hold every batch, so neither
	// side blocks on a send.
	free := make(chan []transport.Frame, recvBatches)
	batches := make(chan []transport.Frame, recvBatches)
	for i := 0; i < recvBatches; i++ {
		free <- make([]transport.Frame, transport.RecvBatchLen)
	}
	recvErr := make(chan error, 1)
	go func() {
		rx := transport.Batched(t.ep)
		for {
			var b []transport.Frame
			select {
			case b = <-free:
			case <-ctx.Done():
				recvErr <- ctx.Err()
				return
			}
			n, err := rx.RecvBatch(ctx, b[:cap(b)])
			if err != nil {
				recvErr <- err
				return
			}
			batches <- b[:n]
		}
	}()
	var pending []pendingHello
	for {
		select {
		case err := <-recvErr:
			return fmt.Errorf("protocol: tracker recv: %w", err)
		case <-sweep:
			t.expireSilent(ctx)
		case b := <-batches:
			pending = t.ingestBatch(ctx, b, pending)
			free <- b
			// Coalesce whatever else already arrived, so a hello burst
			// becomes one matrix transaction per dispatch round.
		drain:
			for len(pending) < admissionBatchMax {
				select {
				case b = <-batches:
					pending = t.ingestBatch(ctx, b, pending)
					free <- b
				default:
					break drain
				}
			}
			pending = t.flushHellos(ctx, pending)
		}
	}
}

// ingestBatch ingests one received batch in arrival order, on one clock
// read, and then releases the whole batch at once: nothing ingest keeps
// aliases a frame.
func (t *Tracker) ingestBatch(ctx context.Context, b []transport.Frame, pending []pendingHello) []pendingHello {
	now := time.Now()
	for i := range b {
		pending = t.ingest(ctx, now, b[i].From, b[i].Msg, pending)
	}
	transport.ReleaseBatch(b)
	return pending
}

// ingest routes one raw frame received at now: hellos are queued for the
// next batch flush, which runs first when the queue already holds
// admissionBatchMax; anything else flushes the queue and dispatches
// immediately so message effects stay in arrival order. Nothing it queues
// or stores aliases frame.
func (t *Tracker) ingest(ctx context.Context, now time.Time, from string, frame []byte, pending []pendingHello) []pendingHello {
	if IsData(frame) {
		return pending // trackers do not carry data
	}
	if IsKeepalive(frame) {
		// A probe keepalive aimed at the server means the prober's parent
		// on that thread is the source itself; echo it back so children of
		// server-owned threads measure RTT over the data path too, and pass
		// the probe's completion report on to the source. Run's callers give
		// ctx no deadline, so a clogged prober costs dispatch at most
		// QueueWait; a lost echo just costs one RTT sample.
		ki, err := DecodeKeepaliveEcho(frame)
		if err != nil || !ki.IsProbe() {
			return pending
		}
		_ = t.ep.Send(ctx, from, EncodeKeepaliveEcho(ki.Thread, 0, ki.TxNanos, 0))
		if t.source != nil {
			t.source.observeProbe(from, ki.Thread, frame)
		}
		return pending
	}
	typ, body, err := SplitControl(frame)
	if err != nil {
		return pending // malformed frame: ignore, stay up
	}
	// Any control message proves the sender is alive; the dedicated
	// MsgLease only matters for nodes with nothing else to say.
	t.touchLease(from, now)
	if typ == MsgHello {
		var h Hello
		if err := UnmarshalControl(typ, body, &h); err != nil {
			return pending
		}
		if len(pending) >= admissionBatchMax {
			pending = t.flushHellos(ctx, pending)
		}
		return append(pending, pendingHello{from: from, h: h})
	}
	pending = t.flushHellos(ctx, pending)
	t.dispatch(ctx, now, from, typ, body)
	return pending
}

func (t *Tracker) dispatch(ctx context.Context, now time.Time, from string, typ MsgType, body []byte) {
	switch typ {
	case MsgGoodbye:
		var g Goodbye
		if err := UnmarshalControl(typ, body, &g); err != nil {
			return
		}
		t.handleGoodbye(ctx, from, g)
	case MsgComplaint:
		var c Complaint
		if err := UnmarshalControl(typ, body, &c); err != nil {
			return
		}
		t.handleComplaint(ctx, c)
	case MsgComplete:
		var c Complete
		if err := UnmarshalControl(typ, body, &c); err != nil {
			return
		}
		t.handleComplete(c)
	case MsgCongested:
		var c Congested
		if err := UnmarshalControl(typ, body, &c); err != nil {
			return
		}
		t.handleCongested(ctx, c)
	case MsgUncongested:
		var u Uncongested
		if err := UnmarshalControl(typ, body, &u); err != nil {
			return
		}
		t.handleUncongested(ctx, u)
	case MsgLease:
		var l Lease
		if err := UnmarshalControl(typ, body, &l); err != nil {
			return
		}
		t.handleLease(ctx, now, from, l)
	case MsgStatsReport:
		var r StatsReport
		if err := UnmarshalControl(typ, body, &r); err != nil {
			return
		}
		t.handleStatsReport(r)
	default:
		// Unknown control types are ignored for forward compatibility.
	}
}

// refreshGauges exports the overlay gauges (rows of M, empty threads,
// completions). It runs as a collect hook of the tracker's registry, so
// the gauges are computed when a snapshot or scrape reads them.
func (t *Tracker) refreshGauges() {
	m := t.cfg.Obs
	t.mu.Lock()
	nodes := t.curtain.NumNodes()
	empty := 0
	for _, id := range t.curtain.HangingThreads() {
		if id == core.ServerID {
			empty++
		}
	}
	completed := len(t.completed)
	t.mu.Unlock()
	m.Nodes.Set(int64(nodes))
	m.EmptyThreads.Set(int64(empty))
	m.Completed.Set(int64(completed))
}

// Health reports the live matrix-M invariants: population, failure tags,
// per-degree row counts, and threads with no clips.
func (t *Tracker) Health() obs.OverlayHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := obs.OverlayHealth{
		K:             t.cfg.K,
		DefaultDegree: t.cfg.D,
		Nodes:         t.curtain.NumNodes(),
		Failed:        t.curtain.NumFailed(),
		Completed:     len(t.completed),
		DegreeDist:    make(map[int]int),
	}
	for _, id := range t.curtain.Nodes() {
		if d, err := t.curtain.Degree(id); err == nil {
			h.DegreeDist[d]++
		}
	}
	for _, id := range t.curtain.HangingThreads() {
		if id == core.ServerID {
			h.EmptyThreads++
		}
	}
	return h
}

// ClusterSnapshot aggregates every node's latest telemetry report into the
// fleet-wide view served at /debug/cluster: per-node freshness, the
// per-generation decode census with straggler detection, the slowest
// decoder, and fleet-wide decode-delay quantiles.
func (t *Tracker) ClusterSnapshot() obs.ClusterSnapshot {
	overlay := t.Health()
	now := time.Now()
	snap := obs.ClusterSnapshot{At: now, Overlay: &overlay}
	// Staleness horizon: a healthy node reports every interval, so three
	// missed intervals means its report can no longer be trusted to
	// describe the present (the node may be gone, wedged, or partitioned).
	staleAfter := 3 * t.cfg.StatsInterval
	snap.StaleAfterMillis = staleAfter.Milliseconds()

	t.mu.Lock()
	ids := make([]core.NodeID, 0, len(t.reports))
	for id := range t.reports {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type row struct {
		nr   nodeReport
		addr string
	}
	rows := make([]row, 0, len(ids))
	for _, id := range ids {
		rows = append(rows, row{nr: t.reports[id], addr: t.addrOf[id]})
	}
	linkRows, idOf := t.linkRowsLocked()
	genIDs := t.genIDs
	t.mu.Unlock()

	var medians []float64
	var slowestP50 int64
	for _, r := range rows {
		rep := r.nr.report
		age := now.Sub(r.nr.at)
		n := obs.ClusterNode{
			ID:               rep.ID,
			Addr:             r.addr,
			AgeMillis:        age.Milliseconds(),
			Fresh:            staleAfter <= 0 || age <= staleAfter,
			Rank:             rep.Rank,
			MaxRank:          rep.MaxRank,
			GensDone:         rep.GensDone,
			TotalGens:        rep.TotalGens,
			Complete:         rep.Complete,
			GenRanks:         rep.GenRanks,
			Received:         rep.Received,
			Innovative:       rep.Innovative,
			Redundant:        rep.Redundant,
			Complaints:       rep.Complaints,
			LeaseRenewals:    rep.LeaseRenewals,
			QueueDepth:       rep.QueueDepth,
			DelayP50Nanos:    rep.DelayP50Nanos,
			DelayP90Nanos:    rep.DelayP90Nanos,
			DelayP99Nanos:    rep.DelayP99Nanos,
			OverheadPermille: rep.OverheadPermille,
		}
		if n.MaxRank > 0 {
			n.Progress = float64(n.Rank) / float64(n.MaxRank)
		}
		snap.Nodes = append(snap.Nodes, n)
		if n.Fresh && n.DelayP50Nanos > 0 {
			medians = append(medians, float64(n.DelayP50Nanos))
			if snap.SlowestID == 0 || n.DelayP50Nanos > slowestP50 {
				snap.SlowestID, slowestP50 = n.ID, n.DelayP50Nanos
			}
		}
	}
	// Fleet quantiles over per-node medians: the raw per-generation samples
	// stay node-local, so this is a quantile-of-medians approximation.
	if len(medians) > 0 {
		snap.FleetDelayP50Nanos = int64(obs.Quantile(medians, 0.50))
		snap.FleetDelayP90Nanos = int64(obs.Quantile(medians, 0.90))
		snap.FleetDelayP99Nanos = int64(obs.Quantile(medians, 0.99))
	}
	snap.Trace = t.traces.Summary()
	snap.Links = obs.AssembleLinks(now, staleAfter, linkRows, idOf).Worst
	// Per-generation census over fresh reporters whose rank vector covers
	// the session's generation list. Stragglers are named only once a
	// majority of reporters decoded the generation — before that the
	// generation is simply still in flight for everyone.
	need := t.cfg.Session.GenSize
	for gi, gen := range genIDs {
		gh := obs.GenerationHealth{Index: gi, Gen: gen}
		var behind []uint64
		for i := range snap.Nodes {
			n := &snap.Nodes[i]
			if !n.Fresh || gi >= len(n.GenRanks) {
				continue
			}
			gh.Reporting++
			if n.GenRanks[gi] >= need {
				gh.Decoded++
			} else {
				behind = append(behind, n.ID)
			}
		}
		if gh.Reporting > 0 && gh.Decoded*2 > gh.Reporting {
			gh.StragglerIDs = behind
		}
		if gh.Reporting > 0 {
			snap.Generations = append(snap.Generations, gh)
		}
	}
	return snap
}

// Outbox policy. Each transport peer (transport.PeerKey of the
// destination, so every virtual node multiplexed behind one swarm
// endpoint shares a worker) gets a serial worker goroutine: per-peer
// message order is preserved while one stalled peer can never delay
// another (or the dispatch loop). The queue is bounded and enqueueing
// never blocks: when a peer's outbox is full the newest message is
// dropped, which every control flow tolerates — children re-complain,
// leavers re-send good-byes, joiners re-hello, leases renew.
const (
	outboxDepth    = 64
	outboxAttempts = 3
	outboxBackoff  = 25 * time.Millisecond
	// outboxIdle is how long a worker with an empty queue lingers before
	// retiring, so churned-away peers do not leak goroutines forever.
	outboxIdle = 30 * time.Second
)

// sendDeadline bounds one send attempt to one peer.
func (t *Tracker) sendDeadline() time.Duration {
	if t.cfg.SendDeadline > 0 {
		return t.cfg.SendDeadline
	}
	return 2 * time.Second
}

// outboxCap returns the per-peer outbox depth.
func (t *Tracker) outboxCap() int {
	if t.cfg.OutboxDepth > 0 {
		return t.cfg.OutboxDepth
	}
	return outboxDepth
}

// sendControl marshals and enqueues a control message on the destination
// peer's outbox (keyed by transport.PeerKey, so every virtual sub-address
// behind one transport peer shares a worker and its ordering). It never
// blocks: a peer with a clogged TCP buffer stalls only its own worker,
// for at most outboxAttempts * sendDeadline plus backoff.
func (t *Tracker) sendControl(ctx context.Context, to string, typ MsgType, payload interface{}) {
	frame, err := EncodeControl(typ, payload)
	if err != nil {
		return
	}
	key := transport.PeerKey(to)
	t.outMu.Lock()
	defer t.outMu.Unlock()
	ch, ok := t.outboxes[key]
	if !ok {
		ch = make(chan outMsg, t.outboxCap())
		t.outboxes[key] = ch
		go t.outboxLoop(ctx, key, ch)
	}
	select {
	case ch <- outMsg{to: to, frame: frame}:
	default:
		// Full outbox: drop the newest rather than block dispatch.
		t.cfg.Obs.OutboxDrops.Inc()
	}
}

// outboxLoop drains one peer's control queue on one send window (see
// deliver). It retires once a whole outboxIdle period passed without a
// message: the idle timer is armed once and, when it fires after a busy
// period, re-armed rather than reset on every message. The empty-check
// and map delete happen under outMu, where enqueues also happen, so a
// frame can never be stranded in a retired worker's queue.
func (t *Tracker) outboxLoop(ctx context.Context, key string, ch chan outMsg) {
	w := transport.NewSendWindow(ctx, t.sendDeadline())
	defer w.Stop()
	idle := time.NewTimer(outboxIdle)
	defer idle.Stop()
	busy := false
	for {
		select {
		case <-ctx.Done():
			return
		case m := <-ch:
			t.deliver(ctx, &w, m.to, m.frame)
			busy = true
		case <-idle.C:
			if !busy {
				t.outMu.Lock()
				if len(ch) == 0 && t.outboxes[key] == ch {
					delete(t.outboxes, key)
					t.outMu.Unlock()
					return
				}
				t.outMu.Unlock()
			}
			busy = false
			idle.Reset(outboxIdle)
		}
	}
}

// deliver performs the bounded-retry send of one frame to one peer. Each
// attempt sends on the worker's window w, so it waits on a full queue for
// between sendDeadline/2 and sendDeadline and builds no timer of its own;
// an attempt that timed out expired the window, so the retry gets a fresh
// one. The first attempt carries the deadline too: with none, the fabric
// and UDP drop a frame after QueueWait on a full queue and return nil, and
// the retries below would never run.
func (t *Tracker) deliver(ctx context.Context, w *transport.SendWindow, to string, frame []byte) {
	m := t.cfg.Obs
	backoff := outboxBackoff
	for attempt := 0; attempt < outboxAttempts; attempt++ {
		err := t.ep.Send(w.Context(), to, frame)
		if err == nil {
			return
		}
		// A vanished peer or closed endpoint will not heal on retry.
		if errors.Is(err, transport.ErrUnknownPeer) || errors.Is(err, transport.ErrClosed) {
			break
		}
		if attempt == outboxAttempts-1 {
			break
		}
		m.OutboxRetries.Inc()
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
	}
	m.OutboxDrops.Inc()
}

// touchLease refreshes the sender's liveness lease, if it is a known node.
func (t *Tracker) touchLease(from string, now time.Time) {
	t.mu.Lock()
	if id, ok := t.idOf[from]; ok {
		t.lastSeen[id] = now
	}
	t.mu.Unlock()
}

// leaseMillis is the renewal interval announced in Welcome.
func (t *Tracker) leaseMillis() int64 {
	if t.cfg.LeaseTimeout <= 0 {
		return 0
	}
	ms := (t.cfg.LeaseTimeout / 4).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// statsMillis is the telemetry reporting interval announced in Welcome.
func (t *Tracker) statsMillis() int64 {
	if t.cfg.StatsInterval <= 0 {
		return 0
	}
	ms := t.cfg.StatsInterval.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// handleStatsReport stores a node's latest telemetry report. Reports from
// unknown ids (already swept, or never joined) are dropped — keeping them
// would leak entries and resurrect departed nodes in the cluster view.
func (t *Tracker) handleStatsReport(r StatsReport) {
	t.cfg.Obs.StatsReports.Inc()
	id := core.NodeID(r.ID)
	t.mu.Lock()
	addr, known := t.addrOf[id]
	if !known {
		t.mu.Unlock()
		return
	}
	prev := t.reports[id]
	nr := nodeReport{report: r, at: time.Now(), prevLinks: prev.report.Links, prevAt: prev.at}
	t.reports[id] = nr
	t.mu.Unlock()
	// Hop spans ride the same report; the trace collector locks itself, so
	// its assembly happens outside t.mu. The link scorecards stay in the
	// stored report, where link snapshots read them; here they only feed
	// the histograms.
	if len(r.TraceHops) > 0 {
		t.traces.Ingest(r.ID, r.TraceHops)
	}
	row := nr.linkRow(addr)
	t.cfg.Obs.Link.Observe(&row)
}

// TraceSnapshot assembles the tracker's dissemination-tracing view: the
// fleet hop-depth distribution and every retained generation's hop tree.
// Serve it at /debug/trace via obs.WithTraceSnapshot.
func (t *Tracker) TraceSnapshot() obs.TraceSnapshot {
	return t.traces.Snapshot()
}

// LinkSnapshot assembles the fleet link matrix: every reported (reporter,
// peer) edge with loss, RTT, innovation and goodput, plus the worst-links
// digest. Serve it at /debug/links via obs.WithLinkSnapshot. The staleness
// horizon matches ClusterSnapshot's: three missed reporting intervals.
func (t *Tracker) LinkSnapshot() obs.LinkSnapshot {
	t.mu.Lock()
	rows, idOf := t.linkRowsLocked()
	t.mu.Unlock()
	return obs.AssembleLinks(time.Now(), 3*t.cfg.StatsInterval, rows, idOf)
}

// linkRowsLocked copies the held reports' scorecards as link-matrix rows,
// with the addr→id map that names each edge's peer, so the assembly can
// run without t.mu. Caller holds t.mu.
func (t *Tracker) linkRowsLocked() ([]obs.LinkRow, map[string]uint64) {
	var rows []obs.LinkRow
	for id, nr := range t.reports {
		if len(nr.report.Links) > 0 {
			rows = append(rows, nr.linkRow(t.addrOf[id]))
		}
	}
	if len(rows) == 0 {
		return nil, nil
	}
	m := make(map[string]uint64, len(t.idOf))
	for addr, id := range t.idOf {
		m[addr] = uint64(id)
	}
	return rows, m
}

// handleLease renews a node's lease. A lease from an unknown id means the
// node was already swept (it was partitioned past the timeout): tell it,
// so it re-joins immediately instead of waiting to starve.
func (t *Tracker) handleLease(ctx context.Context, now time.Time, from string, l Lease) {
	t.cfg.Obs.Leases.Inc()
	id := core.NodeID(l.ID)
	t.mu.Lock()
	_, known := t.addrOf[id]
	if known {
		t.lastSeen[id] = now
	}
	t.mu.Unlock()
	if !known {
		t.sendControl(ctx, from, MsgExpelled, Expelled{ID: l.ID})
	}
}

// expireSilent expires every node whose lease went silent, splicing it
// out exactly as a complaint-triggered repair would. This is the only
// failure detector that catches a crashed bottom clip — a node with no
// children has nobody to complain about it.
func (t *Tracker) expireSilent(ctx context.Context) {
	now := time.Now()
	t.mu.Lock()
	var expired []core.NodeID
	for id, seen := range t.lastSeen {
		if now.Sub(seen) > t.cfg.LeaseTimeout {
			expired = append(expired, id)
		}
	}
	t.mu.Unlock()
	for _, id := range expired {
		t.expire(ctx, id)
	}
}

// expire splices out one lease-expired node via Fail+Repair and notifies
// it (it may be alive but partitioned; MsgExpelled makes it re-join).
func (t *Tracker) expire(ctx context.Context, id core.NodeID) {
	t.mu.Lock()
	addr, ok := t.addrOf[id]
	t.mu.Unlock()
	if !ok {
		return // already removed
	}
	opStart := time.Now()
	err := t.spliceOut(ctx, id, func() error {
		if err := t.curtain.Fail(id); err != nil {
			return err
		}
		return t.curtain.Repair(id)
	})
	if err != nil {
		return
	}
	t.cfg.Obs.LeaseExpiries.Inc()
	t.cfg.Obs.Repairs.Inc()
	t.cfg.Obs.RepairNanos.ObserveSince(opStart)
	t.sendControl(ctx, addr, MsgExpelled, Expelled{ID: uint64(id)})
	t.emit(TrackerEvent{Kind: "expire", ID: id, Addr: addr})
}

func (t *Tracker) emit(ev TrackerEvent) {
	t.cfg.Obs.Events.Record(obs.Event{Layer: "tracker", Kind: ev.Kind, Node: uint64(ev.ID), Detail: ev.Addr})
	select {
	case t.events <- ev:
	default: // observer asleep: drop rather than block the control plane
	}
}

// admitted is one hello's outcome computed inside the batch transaction;
// the sends and events happen after the lock is released.
type admitted struct {
	from   string
	addr   string
	id     core.NodeID
	clips  []core.Clip
	w      Welcome
	dup    bool   // welcome retry: no redirects, no join event
	errMsg string // join rejection: MsgError instead of a welcome
}

// flushHellos performs the §3 hello protocol for every queued hello in
// one matrix transaction: a single lock hold admits the whole batch (rows
// inserted sequentially, in arrival order, so placements are identical to
// one-at-a-time dispatch), then the per-hello Welcomes, parent redirects
// and join events go out in the same order. Always returns an empty queue
// reusing pending's storage.
func (t *Tracker) flushHellos(ctx context.Context, pending []pendingHello) []pendingHello {
	if len(pending) == 0 {
		return pending[:0]
	}
	m := t.cfg.Obs
	out := make([]admitted, 0, len(pending))
	t.mu.Lock()
	for _, ph := range pending {
		m.Hellos.Inc()
		opStart := time.Now() // also the hello's lease stamp
		addr := ph.h.Addr
		if addr == "" {
			addr = ph.from
		}
		deg := ph.h.Degree
		if deg == 0 {
			deg = t.cfg.D
		}
		if id, ok := t.idOf[addr]; ok {
			// Duplicate hello: the node is retrying because our welcome was
			// lost (or it is still queued behind this batch). Re-send the
			// same welcome instead of re-joining. The retry also proves the
			// node is alive, so refresh its lease here: touchLease keys by
			// the transport sender and misses when Hello.Addr differs from
			// it, and without this a joiner stuck re-helloing through a slow
			// admission wave could be lease-expired while provably present.
			t.lastSeen[id] = opStart
			threads, err := t.curtain.Threads(id)
			if err != nil {
				continue
			}
			out = append(out, admitted{from: ph.from, dup: true, w: Welcome{
				ID:          uint64(id),
				K:           t.cfg.K,
				Degree:      len(threads),
				Session:     t.cfg.Session,
				Threads:     threads,
				LeaseMillis: t.leaseMillis(),
				StatsMillis: t.statsMillis(),
			}})
			continue
		}
		id, err := t.curtain.JoinDegree(deg)
		if err != nil {
			out = append(out, admitted{from: ph.from, errMsg: err.Error()})
			continue
		}
		t.addrOf[id] = addr
		t.idOf[addr] = id
		t.lastSeen[id] = opStart
		threads, terr := t.curtain.Threads(id)
		clips, cerr := t.curtain.Clips(id)
		if terr != nil || cerr != nil {
			continue // unreachable given a successful join
		}
		out = append(out, admitted{
			from:  ph.from,
			addr:  addr,
			id:    id,
			clips: clips,
			w: Welcome{
				ID:          uint64(id),
				K:           t.cfg.K,
				Degree:      deg,
				Session:     t.cfg.Session,
				Threads:     threads,
				LeaseMillis: t.leaseMillis(),
				StatsMillis: t.statsMillis(),
			},
		})
		m.HelloNanos.ObserveSince(opStart)
	}
	t.mu.Unlock()
	m.AdmitBatch.Observe(float64(len(pending)))

	for _, a := range out {
		if a.errMsg != "" {
			t.sendControl(ctx, a.from, MsgError, ErrorMsg{Reason: a.errMsg})
			continue
		}
		t.sendControl(ctx, a.from, MsgWelcome, a.w)
		if a.dup {
			continue
		}
		// Redirect each parent's stream on the shared thread to the new node.
		for _, cl := range a.clips {
			t.redirect(ctx, cl.Parent, cl.Thread, a.addr)
		}
		t.emit(TrackerEvent{Kind: "join", ID: a.id, Addr: a.addr})
	}
	return pending[:0]
}

// redirect routes thread th of owner (a node id or ServerID) to childAddr.
func (t *Tracker) redirect(ctx context.Context, owner core.NodeID, th int, childAddr string) {
	t.cfg.Obs.Redirects.Inc()
	if owner == core.ServerID {
		if t.source != nil {
			t.source.SetChild(th, childAddr)
		}
		return
	}
	t.mu.Lock()
	ownerAddr, ok := t.addrOf[owner]
	t.mu.Unlock()
	if !ok {
		return
	}
	t.sendControl(ctx, ownerAddr, MsgRedirect, Redirect{Thread: th, ChildAddr: childAddr})
}

// spliceOut removes a node's row, redirecting each of its parents to its
// per-thread child (or hanging the thread). remove performs the row
// deletion appropriate to the caller (Leave or Fail+Repair).
func (t *Tracker) spliceOut(ctx context.Context, id core.NodeID, remove func() error) error {
	t.mu.Lock()
	clips, err := t.curtain.Clips(id)
	if err != nil {
		t.mu.Unlock()
		return err
	}
	// Each clip's child's address BEFORE the row disappears ("" on the
	// threads where this node is the bottom clip: 0 has no address).
	childAddrs := make([]string, len(clips))
	for i, cl := range clips {
		childAddrs[i] = t.addrOf[cl.Child]
	}
	if err := remove(); err != nil {
		t.mu.Unlock()
		return err
	}
	addr := t.addrOf[id]
	delete(t.addrOf, id)
	delete(t.idOf, addr)
	// The row is gone, so every per-node record must go with it: a stale
	// completed entry would inflate CompletedCount (and the Completed
	// gauge) forever under churn, a stale lease would make the sweep
	// re-expire an id the curtain no longer knows, and a stale report
	// would keep a ghost reporter's edges in the link matrix.
	delete(t.completed, id)
	delete(t.lastSeen, id)
	delete(t.reports, id)
	t.mu.Unlock()

	for i, cl := range clips {
		t.redirect(ctx, cl.Parent, cl.Thread, childAddrs[i])
	}
	return nil
}

// handleGoodbye performs the §3 good-bye protocol.
func (t *Tracker) handleGoodbye(ctx context.Context, from string, g Goodbye) {
	t.cfg.Obs.Goodbyes.Inc()
	id := core.NodeID(g.ID)
	t.mu.Lock()
	addr, ok := t.addrOf[id]
	t.mu.Unlock()
	if !ok {
		// Idempotent: the node may be re-sending a good-bye whose ack was
		// lost after the row was already removed. Ack again.
		t.sendControl(ctx, from, MsgGoodbyeAck, GoodbyeAck{})
		return
	}
	opStart := time.Now()
	err := t.spliceOut(ctx, id, func() error {
		return t.curtain.Leave(id)
	})
	if err != nil {
		t.sendControl(ctx, from, MsgError, ErrorMsg{Reason: err.Error()})
		return
	}
	t.cfg.Obs.GoodbyeNanos.ObserveSince(opStart)
	t.sendControl(ctx, addr, MsgGoodbyeAck, GoodbyeAck{})
	t.emit(TrackerEvent{Kind: "leave", ID: id, Addr: addr})
}

// handleComplaint performs the §3 repair procedure: verify the accused
// parent is still the complainer's parent on that thread, then splice the
// failed node out exactly as if it had left gracefully.
func (t *Tracker) handleComplaint(ctx context.Context, c Complaint) {
	t.cfg.Obs.Complaints.Inc()
	childID := core.NodeID(c.ID)
	t.mu.Lock()
	clips, err := t.curtain.Clips(childID)
	if err != nil {
		t.mu.Unlock()
		return
	}
	clip, found := clipOn(clips, c.Thread)
	accused := clip.Parent
	if !found || accused == core.ServerID {
		// Not the child's thread, or the source itself (trusted): stale.
		t.mu.Unlock()
		return
	}
	accusedAddr := t.addrOf[accused]
	childAddr := t.addrOf[childID]
	t.mu.Unlock()
	// Guard against stale complaints racing a completed repair: the
	// accused address must match what the child observed. A mismatch
	// means the child is starving because it never heard from its NEW
	// parent — most likely a lost redirect — so refresh the route instead
	// of expelling anyone.
	if c.ParentAddr != "" && accusedAddr != c.ParentAddr {
		t.redirect(ctx, accused, c.Thread, childAddr)
		return
	}

	opStart := time.Now()
	err = t.spliceOut(ctx, accused, func() error {
		if err := t.curtain.Fail(accused); err != nil {
			return err
		}
		return t.curtain.Repair(accused)
	})
	if err != nil {
		return
	}
	t.cfg.Obs.Repairs.Inc()
	t.cfg.Obs.RepairNanos.ObserveSince(opStart)
	// Tell the expelled node, in case it is alive-but-slow: it can
	// re-join with a fresh row (its decoded state survives).
	t.sendControl(ctx, accusedAddr, MsgExpelled, Expelled{ID: uint64(accused)})
	t.emit(TrackerEvent{Kind: "repair", ID: accused, Addr: accusedAddr})
}

// handleCongested performs the §5 congestion relief: the node's row loses
// one random one; the dropped thread's parent is joined directly to the
// dropped thread's child.
func (t *Tracker) handleCongested(ctx context.Context, c Congested) {
	id := core.NodeID(c.ID)
	t.mu.Lock()
	addr, ok := t.addrOf[id]
	if !ok {
		t.mu.Unlock()
		return
	}
	clips, err := t.curtain.Clips(id)
	if err != nil {
		t.mu.Unlock()
		return
	}
	dropped, err := t.curtain.ReduceDegree(id)
	if err != nil {
		t.mu.Unlock()
		t.sendControl(ctx, addr, MsgError, ErrorMsg{Reason: err.Error()})
		t.emit(TrackerEvent{Kind: "congest-rejected", ID: id, Addr: addr})
		return
	}
	clip, _ := clipOn(clips, dropped)
	childAddr := t.addrOf[clip.Child]
	t.mu.Unlock()

	t.cfg.Obs.Congestions.Inc()
	// Join the dropped thread's parent directly to its child.
	t.redirect(ctx, clip.Parent, dropped, childAddr)
	t.sendControl(ctx, addr, MsgThreadDropped, ThreadDropped{Thread: dropped})
	t.emit(TrackerEvent{Kind: "congested", ID: id, Addr: addr})
}

// handleUncongested regrows a reduced node: one of the zeroes of its row
// becomes a one, and the streams around the new clip are re-routed.
func (t *Tracker) handleUncongested(ctx context.Context, u Uncongested) {
	id := core.NodeID(u.ID)
	t.mu.Lock()
	addr, ok := t.addrOf[id]
	if !ok {
		t.mu.Unlock()
		return
	}
	gained, err := t.curtain.IncreaseDegree(id)
	if err != nil {
		t.mu.Unlock()
		t.sendControl(ctx, addr, MsgError, ErrorMsg{Reason: err.Error()})
		return
	}
	// Locate the node's new parent and child on the gained thread.
	clips, err := t.curtain.Clips(id)
	if err != nil {
		t.mu.Unlock()
		return
	}
	clip, _ := clipOn(clips, gained)
	childAddr := t.addrOf[clip.Child]
	t.mu.Unlock()

	t.cfg.Obs.Uncongestions.Inc()
	// New parent sends to the node; the node serves the displaced child.
	t.redirect(ctx, clip.Parent, gained, addr)
	t.sendControl(ctx, addr, MsgThreadAdded, ThreadAdded{Thread: gained, ChildAddr: childAddr})
	t.emit(TrackerEvent{Kind: "uncongested", ID: id, Addr: addr})
}

// clipOn returns the clip on thread th among clips, and whether there is
// one.
func clipOn(clips []core.Clip, th int) (core.Clip, bool) {
	for _, cl := range clips {
		if cl.Thread == th {
			return cl, true
		}
	}
	return core.Clip{}, false
}

func (t *Tracker) handleComplete(c Complete) {
	id := core.NodeID(c.ID)
	t.mu.Lock()
	addr, known := t.addrOf[id]
	if !known {
		// A straggling Complete from a node that already left must not
		// re-create its completed entry (it would leak forever).
		t.mu.Unlock()
		return
	}
	already := t.completed[id]
	t.completed[id] = true
	t.mu.Unlock()
	if !already {
		t.cfg.Obs.Completions.Inc()
		t.emit(TrackerEvent{Kind: "complete", ID: id, Addr: addr})
	}
}

// MatrixDump returns the canonical byte-comparable rendering of the
// tracker's matrix M (core.Curtain.MatrixString): one "id:threads[:failed]"
// line per row, in row order. Two trackers with identical histories produce
// identical dumps — the seed-determinism gate of the swarm harness.
func (t *Tracker) MatrixDump() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.curtain.MatrixString()
}

// Topology snapshots the overlay graph for analysis (connectivity
// measurement after a kill wave, defect counting). The snapshot is built
// under the tracker lock but is an independent copy.
func (t *Tracker) Topology() *core.Topology {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.curtain.Snapshot()
}

// ErrNoSuchNode is returned by administrative operations on unknown nodes.
var ErrNoSuchNode = errors.New("protocol: no such node")
