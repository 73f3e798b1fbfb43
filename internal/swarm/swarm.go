// Package swarm multiplexes very large populations of lightweight,
// protocol-correct virtual nodes onto a handful of goroutines, so the
// real tracker's control plane can be exercised at 100k+ nodes on one
// machine (the paper's scale regime) without paying per-node goroutines,
// timers, or sockets.
//
// Each virtual node speaks the real wire protocol — hello (with retry),
// welcome, lease renewal, stats reports, goodbye (with retry), expulsion
// handling — against an unmodified protocol.Tracker. What is stubbed is
// the data plane: instead of decoding coded packets, a node advances a
// synthetic rank at a per-node rate and reports believable
// MsgStatsReports, so the tracker-side telemetry pipeline (ClusterSnapshot
// and friends) sees a live-looking fleet.
//
// Architecture: the population is split across a small number of shards.
// Each shard owns one transport.MuxEndpoint (all its nodes are virtual
// sub-addresses of it — see transport.MuxSep), one event-loop goroutine,
// and one receive pump. All per-node timers live in a hashed timer wheel
// owned by the event loop. Total goroutine count is O(shards), not O(N);
// the drills assert this sublinearity.
package swarm

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ncast/internal/protocol"
	"ncast/internal/transport"
)

// Config parameterises a swarm.
type Config struct {
	// N is the virtual-node population.
	N int
	// Shards is the number of event loops (and mux endpoints) the
	// population is split across. Zero means 8 (or N when smaller).
	Shards int
	// Network is the in-memory fabric shared with the tracker.
	Network *transport.Network
	// TrackerAddr is where hellos go.
	TrackerAddr string
	// Seed drives every per-node random choice (rates, jitter). Two
	// swarms with the same seed and the same command sequence behave
	// identically.
	Seed int64
	// Degree, when non-nil, gives node i's requested degree (0 means the
	// session default). Heterogeneous fleets set this.
	Degree func(i int) int
	// Rate, when non-nil, gives node i's synthetic decode rate in rank
	// units per stats interval (minimum 1). Heterogeneous fleets set
	// this; nil draws 1..4 per node from the seed.
	Rate func(i int) int
	// HelloRetry is how long an unanswered hello waits before resending
	// (default 500ms); GoodbyeRetry likewise for unacked goodbyes.
	HelloRetry   time.Duration
	GoodbyeRetry time.Duration
	// Tick is the timer-wheel granularity (default 5ms).
	Tick time.Duration
	// EndpointBuf is the per-shard mux endpoint receive buffer in frames
	// (default 8192): it must absorb the tracker's welcome bursts while
	// the event loop is busy sending hellos.
	EndpointBuf int
	// AddrPrefix names the shard endpoints (default "swarm"); shard i
	// registers AddrPrefix+i and node j rides it as AddrPrefix+i+"!nj".
	AddrPrefix string
}

// Node lifecycle states (externally visible via State).
const (
	StateIdle int32 = iota
	StateJoining
	StateJoined
	StateLeaving
	StateLeft
	StateCrashed
	StateRejected
)

// Counts is a snapshot of the swarm's counters.
type Counts struct {
	Joined       int64  // currently joined (welcomed and not yet departed)
	Welcomes     uint64 // fresh welcomes (first per join attempt)
	DupWelcomes  uint64 // welcome retries observed
	HelloRetries uint64
	Rejoins      uint64 // joins of previously crashed nodes
	Expelled     uint64 // MsgExpelled received while alive
	Leaves       uint64 // acked goodbyes
	Crashes      uint64
	Leases       uint64
	StatsSent    uint64
	Completes    uint64
	Redirects    uint64 // parent-side redirects received (stub data plane)
	Rejected     uint64 // joins refused with MsgError
	SendErrors   uint64
}

type counters struct {
	joined       atomic.Int64
	welcomes     atomic.Uint64
	dupWelcomes  atomic.Uint64
	helloRetries atomic.Uint64
	rejoins      atomic.Uint64
	expelled     atomic.Uint64
	leaves       atomic.Uint64
	crashes      atomic.Uint64
	leases       atomic.Uint64
	stats        atomic.Uint64
	completes    atomic.Uint64
	redirects    atomic.Uint64
	rejected     atomic.Uint64
	sendErrors   atomic.Uint64
}

// Swarm is a population of virtual nodes.
type Swarm struct {
	cfg    Config
	shards []*shard
	// states and ids mirror each vnode's externally interesting fields
	// so gates and tests can read them without entering the event loops.
	states []atomic.Int32
	ids    []atomic.Uint64
	c      counters

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// command kinds delivered to a shard's event loop.
const (
	cmdJoin uint8 = iota
	cmdLeave
	cmdCrash
)

type command struct {
	kind uint8
	node int32
}

// vnode is one virtual node's state, owned exclusively by its shard's
// event loop — no locks. 100k of these cost ~100 bytes each, not a
// goroutine stack each.
type vnode struct {
	idx   int32
	addr  string
	state int32
	// epoch invalidates scheduled timers: every transition that must
	// cancel outstanding timers (crash, leave, rejoin) bumps it, and the
	// wheel drops fired entries with a stale epoch.
	epoch uint32

	id         uint64
	degree     int
	leaseEvery time.Duration
	statsEvery time.Duration

	// Synthetic data plane.
	rank, maxRank int
	genSize, gens int
	rate          int
	redundant     uint64
	renewals      uint64
	completeSent  bool

	helloAt    time.Time
	wasCrash   bool // this join attempt is a rejoin after a crash
	genScratch []int
}

type shard struct {
	s   *Swarm
	idx int
	ep  *transport.MuxEndpoint
	rng *rand.Rand

	// notify wakes the event loop; inbox and cmds are appended by
	// outsiders (the pump, the public API) under their mutexes and
	// swapped by the loop for its spare, emptied, slice of each, so both
	// keep their backing arrays from round to round.
	notify    chan struct{}
	inMu      sync.Mutex
	inbox     []inFrame
	cmdMu     sync.Mutex
	cmds      []command
	spareIn   []inFrame
	spareCmds []command
	// inboxFrom is the capacity the pump gives the inbox and its spare on
	// their first frame: the shard's node count, up to maxInboxStart.
	inboxFrom int

	// send is the event loop's deadline for every control send (see
	// sendControl); only the loop touches it.
	send transport.SendWindow

	wheel *wheel
	nodes map[int32]*vnode

	latMu sync.Mutex
	lats  []float64 // admission latencies (hello→welcome), nanoseconds
}

// maxInboxStart caps a shard's starting inbox capacity. A flash crowd
// sends a shard several frames per virtual node in one burst, so an inbox
// grown from empty reallocates all the way up; at 4096 frames the inbox
// and its spare take 448 KiB, so a shard of a 100k-node swarm reserves
// under half a megabyte, and grows past that only in a burst that needs
// it.
const maxInboxStart = 4096

type inFrame struct {
	from, to string
	msg      []byte
}

// New builds a swarm and registers its shard endpoints on cfg.Network.
func New(cfg Config) (*Swarm, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("swarm: N must be positive, got %d", cfg.N)
	}
	if cfg.Network == nil || cfg.TrackerAddr == "" {
		return nil, fmt.Errorf("swarm: Network and TrackerAddr are required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Shards > cfg.N {
		cfg.Shards = cfg.N
	}
	if cfg.HelloRetry <= 0 {
		cfg.HelloRetry = 500 * time.Millisecond
	}
	if cfg.GoodbyeRetry <= 0 {
		cfg.GoodbyeRetry = 500 * time.Millisecond
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 5 * time.Millisecond
	}
	if cfg.EndpointBuf <= 0 {
		cfg.EndpointBuf = 8192
	}
	if cfg.AddrPrefix == "" {
		cfg.AddrPrefix = "swarm"
	}
	s := &Swarm{
		cfg:    cfg,
		states: make([]atomic.Int32, cfg.N),
		ids:    make([]atomic.Uint64, cfg.N),
	}
	for i := 0; i < cfg.Shards; i++ {
		ep, err := cfg.Network.MuxEndpoint(fmt.Sprintf("%s%d", cfg.AddrPrefix, i), cfg.EndpointBuf)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, &shard{
			s:         s,
			idx:       i,
			ep:        ep,
			rng:       rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			notify:    make(chan struct{}, 1),
			inboxFrom: min((cfg.N+cfg.Shards-1-i)/cfg.Shards, maxInboxStart),
			wheel:     newWheel(cfg.Tick, 512),
			nodes:     make(map[int32]*vnode),
		})
	}
	return s, nil
}

// Start launches the shard event loops and receive pumps.
func (s *Swarm) Start(ctx context.Context) {
	ctx, s.cancel = context.WithCancel(ctx)
	for _, sh := range s.shards {
		s.wg.Add(2)
		go sh.pump(ctx)
		go sh.run(ctx)
	}
}

// Close stops every loop and releases the shard endpoints.
func (s *Swarm) Close() {
	if s.cancel != nil {
		s.cancel()
	}
	for _, sh := range s.shards {
		sh.ep.Close()
	}
	s.wg.Wait()
}

// shardOf maps a node index to its owning shard.
func (s *Swarm) shardOf(i int) *shard { return s.shards[i%len(s.shards)] }

func (s *Swarm) enqueue(kind uint8, i int) {
	sh := s.shardOf(i)
	sh.cmdMu.Lock()
	sh.cmds = append(sh.cmds, command{kind: kind, node: int32(i)})
	sh.cmdMu.Unlock()
	sh.wake()
}

// Join asks node i to enter the overlay (idempotent while joining or
// joined; a crashed or departed node rejoins with a fresh hello).
func (s *Swarm) Join(i int) { s.enqueue(cmdJoin, i) }

// Leave asks node i to depart gracefully (goodbye, retried until acked).
func (s *Swarm) Leave(i int) { s.enqueue(cmdLeave, i) }

// Crash kills node i silently: no goodbye, all timers cancelled, inbound
// frames ignored — the tracker can only find out via lease expiry.
func (s *Swarm) Crash(i int) { s.enqueue(cmdCrash, i) }

// JoinRange joins nodes [lo, hi).
func (s *Swarm) JoinRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.Join(i)
	}
}

// State returns node i's lifecycle state.
func (s *Swarm) State(i int) int32 { return s.states[i].Load() }

// NodeID returns the tracker-assigned id of node i (0 before any welcome).
func (s *Swarm) NodeID(i int) uint64 { return s.ids[i].Load() }

// JoinedCount returns how many nodes are currently joined.
func (s *Swarm) JoinedCount() int { return int(s.c.joined.Load()) }

// Counts snapshots the counters.
func (s *Swarm) Counts() Counts {
	return Counts{
		Joined:       s.c.joined.Load(),
		Welcomes:     s.c.welcomes.Load(),
		DupWelcomes:  s.c.dupWelcomes.Load(),
		HelloRetries: s.c.helloRetries.Load(),
		Rejoins:      s.c.rejoins.Load(),
		Expelled:     s.c.expelled.Load(),
		Leaves:       s.c.leaves.Load(),
		Crashes:      s.c.crashes.Load(),
		Leases:       s.c.leases.Load(),
		StatsSent:    s.c.stats.Load(),
		Completes:    s.c.completes.Load(),
		Redirects:    s.c.redirects.Load(),
		Rejected:     s.c.rejected.Load(),
		SendErrors:   s.c.sendErrors.Load(),
	}
}

// AdmissionLatencies returns an unsorted copy of every hello→welcome
// latency observed (nanoseconds). Each fresh admission contributes one
// sample.
func (s *Swarm) AdmissionLatencies() []float64 {
	var all []float64
	for _, sh := range s.shards {
		sh.latMu.Lock()
		all = append(all, sh.lats...)
		sh.latMu.Unlock()
	}
	return all
}

func (sh *shard) wake() {
	select {
	case sh.notify <- struct{}{}:
	default:
	}
}

// pump drains the shard endpoint into the unbounded inbox so the
// tracker's outbox workers never block on a busy event loop (which could
// otherwise form a send-cycle under a flash crowd: shard blocked sending
// hellos into a tracker whose replies can't land).
func (sh *shard) pump(ctx context.Context) {
	defer sh.s.wg.Done()
	for {
		from, to, msg, err := sh.ep.RecvTo(ctx)
		if err != nil {
			return
		}
		sh.inMu.Lock()
		if cap(sh.inbox) == 0 {
			// Reserved on first use, not in New: a swarm's set-up stays
			// as cheap as it was.
			sh.inbox = make([]inFrame, 0, sh.inboxFrom)
		}
		sh.inbox = append(sh.inbox, inFrame{from: from, to: to, msg: msg})
		sh.inMu.Unlock()
		sh.wake()
	}
}

// run is the shard event loop: drain frames, drain commands, advance the
// wheel, sleep until woken or the next tick.
func (sh *shard) run(ctx context.Context) {
	defer sh.s.wg.Done()
	sh.send = transport.NewSendWindow(ctx, controlSendBound)
	defer sh.send.Stop()
	tick := time.NewTimer(sh.s.cfg.Tick)
	defer tick.Stop()
	for {
		sh.inMu.Lock()
		frames := sh.inbox
		sh.inbox = sh.spareIn
		sh.inMu.Unlock()
		for i := range frames {
			sh.handleFrame(ctx, &frames[i])
		}
		clear(frames) // let the handled messages go
		sh.spareIn = frames[:0]
		sh.cmdMu.Lock()
		cmds := sh.cmds
		sh.cmds = sh.spareCmds
		sh.cmdMu.Unlock()
		for _, c := range cmds {
			sh.handleCommand(ctx, c)
		}
		sh.spareCmds = cmds[:0]
		sh.wheel.advance(time.Now(), func(e timerEntry) { sh.fire(ctx, e) })

		if !tick.Stop() {
			select {
			case <-tick.C:
			default:
			}
		}
		if sh.wheel.pending() {
			tick.Reset(sh.s.cfg.Tick)
			select {
			case <-ctx.Done():
				return
			case <-sh.notify:
			case <-tick.C:
			}
		} else {
			select {
			case <-ctx.Done():
				return
			case <-sh.notify:
			}
		}
	}
}

// node returns (creating on first use) the vnode for a global index.
func (sh *shard) node(i int32) *vnode {
	v, ok := sh.nodes[i]
	if !ok {
		deg := 0
		if f := sh.s.cfg.Degree; f != nil {
			deg = f(int(i))
		}
		rate := 0
		if f := sh.s.cfg.Rate; f != nil {
			rate = f(int(i))
		}
		if rate <= 0 {
			rate = 1 + sh.rng.Intn(4)
		}
		v = &vnode{
			idx:    i,
			addr:   fmt.Sprintf("%s%cn%d", sh.ep.Addr(), transport.MuxSep, i),
			degree: deg,
			rate:   rate,
		}
		sh.nodes[i] = v
	}
	return v
}

func (sh *shard) setState(v *vnode, st int32) {
	v.state = st
	sh.s.states[v.idx].Store(st)
}

func (sh *shard) handleCommand(ctx context.Context, c command) {
	v := sh.node(c.node)
	switch c.kind {
	case cmdJoin:
		switch v.state {
		case StateJoining, StateJoined, StateLeaving:
			return // already in or on the way
		}
		if v.state == StateCrashed {
			v.wasCrash = true
		}
		v.epoch++
		v.id = 0
		sh.s.ids[v.idx].Store(0)
		v.rank = 0
		v.redundant = 0
		v.renewals = 0
		v.completeSent = false
		sh.setState(v, StateJoining)
		v.helloAt = time.Now()
		sh.sendHello(ctx, v)
		sh.wheel.add(timerEntry{due: time.Now().Add(sh.s.cfg.HelloRetry), node: v.idx, kind: timerHello, epoch: v.epoch})
	case cmdLeave:
		if v.state != StateJoined {
			return
		}
		v.epoch++
		sh.setState(v, StateLeaving)
		sh.sendControl(ctx, v, protocol.MsgGoodbye, protocol.Goodbye{ID: v.id})
		sh.wheel.add(timerEntry{due: time.Now().Add(sh.s.cfg.GoodbyeRetry), node: v.idx, kind: timerGoodbye, epoch: v.epoch})
	case cmdCrash:
		if v.state == StateJoined || v.state == StateJoining || v.state == StateLeaving {
			if v.state == StateJoined {
				sh.s.c.joined.Add(-1)
			}
			v.epoch++
			sh.setState(v, StateCrashed)
			sh.s.c.crashes.Add(1)
		}
	}
}

func (sh *shard) fire(ctx context.Context, e timerEntry) {
	v, ok := sh.nodes[e.node]
	if !ok || v.epoch != e.epoch {
		return // lazily cancelled
	}
	switch e.kind {
	case timerHello:
		if v.state != StateJoining {
			return
		}
		sh.s.c.helloRetries.Add(1)
		sh.sendHello(ctx, v)
		sh.wheel.add(timerEntry{due: time.Now().Add(sh.s.cfg.HelloRetry), node: v.idx, kind: timerHello, epoch: v.epoch})
	case timerGoodbye:
		if v.state != StateLeaving {
			return
		}
		sh.sendControl(ctx, v, protocol.MsgGoodbye, protocol.Goodbye{ID: v.id})
		sh.wheel.add(timerEntry{due: time.Now().Add(sh.s.cfg.GoodbyeRetry), node: v.idx, kind: timerGoodbye, epoch: v.epoch})
	case timerLease:
		if v.state != StateJoined {
			return
		}
		v.renewals++
		sh.s.c.leases.Add(1)
		sh.sendControl(ctx, v, protocol.MsgLease, protocol.Lease{ID: v.id})
		sh.wheel.add(timerEntry{due: time.Now().Add(v.leaseEvery), node: v.idx, kind: timerLease, epoch: v.epoch})
	case timerStats:
		if v.state != StateJoined {
			return
		}
		sh.advanceProgress(ctx, v)
		sh.wheel.add(timerEntry{due: time.Now().Add(v.statsEvery), node: v.idx, kind: timerStats, epoch: v.epoch})
	}
}

func (sh *shard) sendHello(ctx context.Context, v *vnode) {
	sh.sendControl(ctx, v, protocol.MsgHello, protocol.Hello{Addr: v.addr, Degree: v.degree})
}

// controlSendBound bounds how long one control send waits on the
// tracker's full receive queue; on the loop's send window a send waits
// between half of it and all of it.
const controlSendBound = 2 * time.Second

func (sh *shard) sendControl(ctx context.Context, v *vnode, typ protocol.MsgType, payload interface{}) {
	frame, err := protocol.EncodeControl(typ, payload)
	if err != nil {
		sh.s.c.sendErrors.Add(1)
		return
	}
	// A bounded wait on the loop's send window: if the tracker's receive
	// queue stays saturated the frame is dropped and the protocol's retry
	// machinery (hello retry, goodbye retry, next lease tick) recovers —
	// exactly the lossy-link semantics real nodes live with.
	err = sh.ep.SendAs(sh.send.Context(), v.addr, sh.s.cfg.TrackerAddr, frame)
	if err != nil && ctx.Err() == nil {
		sh.s.c.sendErrors.Add(1)
	}
}

func (sh *shard) handleFrame(ctx context.Context, f *inFrame) {
	idx, ok := sh.nodeIndexOf(f.to)
	if !ok {
		return
	}
	v, ok := sh.nodes[idx]
	if !ok {
		return // never commanded: nothing to deliver to
	}
	if v.state == StateCrashed {
		return // a dead process reads nothing
	}
	typ, body, err := protocol.SplitControl(f.msg)
	if err != nil {
		return
	}
	switch typ {
	case protocol.MsgWelcome:
		var w protocol.Welcome
		if err := protocol.UnmarshalControl(typ, body, &w); err != nil {
			return
		}
		sh.handleWelcome(v, w)
	case protocol.MsgGoodbyeAck:
		if v.state != StateLeaving {
			return
		}
		v.epoch++
		sh.setState(v, StateLeft)
		sh.s.c.joined.Add(-1)
		sh.s.c.leaves.Add(1)
	case protocol.MsgExpelled:
		if v.state != StateJoined {
			return
		}
		// Protocol-correct response: the tracker removed our row (lease
		// expiry after a partition, or a complaint); re-join with a fresh
		// hello. Decoded state survives in a real node; here the synthetic
		// rank restarts.
		sh.s.c.expelled.Add(1)
		sh.s.c.joined.Add(-1)
		v.epoch++
		v.id = 0
		sh.s.ids[v.idx].Store(0)
		sh.setState(v, StateJoining)
		v.helloAt = time.Now()
		sh.sendHello(ctx, v)
		sh.wheel.add(timerEntry{due: time.Now().Add(sh.s.cfg.HelloRetry), node: v.idx, kind: timerHello, epoch: v.epoch})
	case protocol.MsgRedirect, protocol.MsgThreadDropped, protocol.MsgThreadAdded:
		// Stub data plane: a real node would re-route its stream; the
		// swarm only needs the tracker to believe it did.
		sh.s.c.redirects.Add(1)
	case protocol.MsgError:
		if v.state == StateJoining {
			v.epoch++
			sh.setState(v, StateRejected)
			sh.s.c.rejected.Add(1)
		}
	}
}

// nodeIndexOf parses the virtual node index from a full destination
// address of the form <shardAddr>!n<idx>.
func (sh *shard) nodeIndexOf(to string) (int32, bool) {
	base := sh.ep.Addr()
	// Expect to == base + "!n" + digits.
	if len(to) < len(base)+3 || to[:len(base)] != base ||
		to[len(base)] != transport.MuxSep || to[len(base)+1] != 'n' {
		return 0, false
	}
	var idx int32
	for i := len(base) + 2; i < len(to); i++ {
		c := to[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + int32(c-'0')
	}
	if int(idx) >= sh.s.cfg.N {
		return 0, false
	}
	return idx, true
}

func (sh *shard) handleWelcome(v *vnode, w protocol.Welcome) {
	if v.state != StateJoining {
		if v.state == StateJoined {
			sh.s.c.dupWelcomes.Add(1)
		}
		return
	}
	lat := float64(time.Since(v.helloAt).Nanoseconds())
	sh.latMu.Lock()
	sh.lats = append(sh.lats, lat)
	sh.latMu.Unlock()

	v.epoch++ // cancels the hello retry
	v.id = w.ID
	sh.s.ids[v.idx].Store(w.ID)
	sh.setState(v, StateJoined)
	sh.s.c.joined.Add(1)
	sh.s.c.welcomes.Add(1)
	if v.wasCrash {
		v.wasCrash = false
		sh.s.c.rejoins.Add(1)
	}

	// Synthetic data plane sizing from the session parameters.
	v.genSize = w.Session.GenSize
	if v.genSize <= 0 {
		v.genSize = 1
	}
	perGen := v.genSize * w.Session.PacketSize
	v.gens = 1
	if perGen > 0 && w.Session.ContentLen > perGen {
		v.gens = (w.Session.ContentLen + perGen - 1) / perGen
	}
	v.maxRank = v.gens * v.genSize
	v.rank = 0

	if w.LeaseMillis > 0 {
		v.leaseEvery = time.Duration(w.LeaseMillis) * time.Millisecond
		// Jittered first renewal so 100k leases don't beat in phase.
		first := time.Duration(sh.rng.Int63n(int64(v.leaseEvery))) + v.leaseEvery/2
		sh.wheel.add(timerEntry{due: time.Now().Add(first), node: v.idx, kind: timerLease, epoch: v.epoch})
	}
	if w.StatsMillis > 0 {
		v.statsEvery = time.Duration(w.StatsMillis) * time.Millisecond
		first := time.Duration(sh.rng.Int63n(int64(v.statsEvery)))
		sh.wheel.add(timerEntry{due: time.Now().Add(first), node: v.idx, kind: timerStats, epoch: v.epoch})
	}
}

// advanceProgress moves the synthetic decode forward and reports it: the
// believable stats stream that keeps the tracker's telemetry plane
// (freshness, progress census, straggler detection) exercised at scale.
func (sh *shard) advanceProgress(ctx context.Context, v *vnode) {
	if v.rank < v.maxRank {
		v.rank += v.rate
		if v.rank > v.maxRank {
			v.rank = v.maxRank
		}
		// Roughly 2% of received coded packets arrive redundant — enough
		// to keep the overhead fields non-trivial.
		if v.rank%50 == 0 {
			v.redundant++
		}
	}
	if cap(v.genScratch) < v.gens {
		v.genScratch = make([]int, v.gens)
	}
	genRanks := v.genScratch[:v.gens]
	rest := v.rank
	done := 0
	for g := 0; g < v.gens; g++ {
		r := rest
		if r > v.genSize {
			r = v.genSize
		}
		genRanks[g] = r
		rest -= r
		if r == v.genSize {
			done++
		}
	}
	complete := v.rank >= v.maxRank
	r := protocol.StatsReport{
		ID:            v.id,
		Rank:          v.rank,
		MaxRank:       v.maxRank,
		GenRanks:      genRanks,
		GensDone:      done,
		TotalGens:     v.gens,
		Complete:      complete,
		Received:      uint64(v.rank) + v.redundant,
		Innovative:    uint64(v.rank),
		Redundant:     v.redundant,
		LeaseRenewals: v.renewals,
	}
	sh.s.c.stats.Add(1)
	sh.sendControl(ctx, v, protocol.MsgStatsReport, r)
	if complete && !v.completeSent {
		v.completeSent = true
		sh.s.c.completes.Add(1)
		sh.sendControl(ctx, v, protocol.MsgComplete, protocol.Complete{ID: v.id})
	}
}
