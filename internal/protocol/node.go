package protocol

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"time"

	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// NodeConfig parameterises a client node.
type NodeConfig struct {
	// TrackerAddr is the tracker's transport address.
	TrackerAddr string
	// Degree requests a non-default d (heterogeneous bandwidth, §5).
	Degree int
	// ComplaintTimeout is how long a thread may stay silent before the
	// node complains to the tracker (the §3 "eventually the children of
	// the failed node complain"). Zero disables complaints.
	ComplaintTimeout time.Duration
	// Seed drives recoding randomness. The receive loop, or each decode
	// worker, forwards with an rng of its own derived from it, since
	// math/rand is not safe for concurrent use.
	Seed int64
	// DecodeWorkers sets the size of the worker pool that absorbs data
	// packets into per-generation recoders. Packets are sharded to
	// workers by generation id, so each generation's Gaussian
	// elimination stays single-threaded while distinct generations
	// decode in parallel. 0 or 1 absorbs packets inline on the receive
	// loop (the prior behavior).
	DecodeWorkers int
	// Obs carries optional instrumentation; nil leaves the node (and its
	// codecs) uninstrumented.
	Obs *obs.NodeMetrics
	// GenSink, when non-nil, receives every generation-lifecycle
	// transition (first packet, rank quartiles, decode) — the feed behind
	// ncast-sim's -timeline and any live observer. Called from decode
	// workers, after the node releases its lock; must be safe for
	// concurrent use.
	GenSink obs.GenSink
}

// Node is an overlay client: it joins via the hello protocol, receives
// unit streams from its parents, re-mixes them with RLNC, forwards along
// its threads, decodes the content, and participates in repair by
// complaining about silent parents.
type Node struct {
	ep  transport.Endpoint
	cfg NodeConfig
	// rng is guarded by mu: the clock's keepalives and the catch-up bursts
	// of applyRedirect draw from it. The forward path has its own.
	rng *rand.Rand

	mu         sync.Mutex
	id         uint64
	joined     bool
	field      gf.Field
	params     rlnc.Params
	totalGens  int
	contentLen int
	layerSizes []int // non-empty in layered mode
	// slots maps every valid (possibly namespaced) generation id onto its
	// slot, and gens holds each generation's state at its slot. Both are
	// fixed by the first welcome: a re-join keeps what the node has
	// decoded, and its lifecycle record.
	slots    genIndex
	gens     []genSlot
	gensDone int
	// done marks, by slot, the generations this node has decoded: its own
	// part of the completion report it sends up every thread.
	done []uint64
	// table holds the node's thread records in the order they were made
	// (see heldThread); beats and probes go out in that order. foldBuf is
	// foldLocked's scratch.
	table      []heldThread
	foldBuf    []uint64
	complete   bool
	innovative int
	redundant  int
	received   int
	hbGen      int
	// seqs holds the next outbound sequence number of every thread the
	// node has sent data on; links scores every inbound peer — loss from
	// sequence gaps, RTT from keepalive echoes, innovation per parent.
	// hops holds the traced arrivals since the last stats report, one cell
	// per (trace, generation, hop depth). n.mu guards all of the node's
	// telemetry: neither recorder has a lock of its own.
	seqs  []threadSeq
	links *obs.LinkTracker
	hops  obs.HopCells
	// complaintsSent and leaseSent count control messages this node has
	// issued, for the periodic stats report.
	complaintsSent uint64
	leaseSent      uint64
	// leaseEvery is the tracker-announced lease renewal interval (zero
	// when the tracker runs no lease sweep); statsEvery is the announced
	// telemetry reporting interval (zero disables reporting).
	leaseEvery time.Duration
	statsEvery time.Duration
	// leaving is set by Leave; left once leftCh is closed. Together they
	// make MsgGoodbyeAck handling idempotent: an unsolicited or duplicate
	// ack must neither tear down Run nor double-close leftCh. In between,
	// the clock re-sends the good-bye.
	leaving bool
	left    bool

	// decodeQ holds the per-worker packet queues when DecodeWorkers > 1;
	// nil means inline decoding. Written once in Run before the receive
	// loop and read only from it, so no lock is needed.
	decodeQ  []chan decodeJob
	decodeWG sync.WaitGroup

	joinedCh   chan error
	completeCh chan struct{}
	leftCh     chan struct{}
}

// decodeJob carries one received packet from handleData to absorb,
// inline or through a decode worker, with everything absorb needs that
// handleData read under n.mu: the session field, the generation's slot
// and recoder, the child to forward to ("" when the thread has none or
// its report marks the generation full), the arrival time and the frame's
// trace context and source-emission stamp.
type decodeJob struct {
	f       gf.Field
	th      int
	slot    int
	from    string
	child   string
	emit    int64
	arrival int64
	tc      TraceContext
	rc      *rlnc.Recoder
	p       *rlnc.Packet
}

// heldThread is the node's record of one thread. A welcome leaves the
// records of exactly the threads it gives, keeping what the node knew of
// each; a ThreadAdded makes one or takes one over; a redirect that arrives
// before the welcome or ThreadAdded giving its thread (a lost or late
// control message) makes one not yet held, so the child it names is
// served once the thread is. A ThreadDropped removes the thread's record
// and an expulsion removes them all. The thread's outbound sequence
// numbers outlive its record (Node.seqs).
type heldThread struct {
	th int
	// held marks a thread the node holds. Only on a held thread does the
	// node track a parent, complain and probe: a frame still in flight on
	// a dropped thread must not make its sender a parent again, or the
	// node would keep probing a former parent that now counts the probes
	// as upstream liveness.
	held bool
	// parent is the peer the node last heard from on the thread, and heard
	// when (or when the thread was given): the complaint clock.
	parent string
	heard  time.Time
	down   downstream
	// sent is the last completion report the node sent up the thread.
	sent sentReport
}

// threadSeq is the next outbound sequence number on one thread.
type threadSeq struct {
	th   int
	next uint32
}

// sentReport is the completion report a node last sent up a thread, the
// parent it sent it to, how many slots it left open and its first open
// slot.
type sentReport struct {
	to    string
	set   genSet
	open  int
	first int
}

// genSlot is the node's state for one generation: its recoder, its
// lifecycle record and its trace merge state. The recoders come in
// chunks of recoderChunk slots (startChunkLocked): rc is nil until some
// generation of its chunk gets its first packet.
type genSlot struct {
	rc *rlnc.Recoder
	// life records the generation's lifecycle spans: first packet, rank
	// quartiles, decode completion and end-to-end delay against the
	// earliest source emission stamp.
	life obs.GenLife
	// trace is the dissemination-trace context this node first received
	// for a sampled generation: the trace ID and the node's own hop depth
	// (max over received frames of the same trace, per the merge rule —
	// under recoding a node may hear a traced generation at several
	// depths). Zero unless the source samples the generation.
	trace traceState
	// hops leads to the generation's hop cells in Node.hops.
	hops obs.HopRef
}

// traceState is the per-generation trace merge state: the trace ID the
// node adopted (first seen wins; zero while untraced) and the node's hop
// depth under that trace (max over received frames).
type traceState struct {
	id    uint64
	depth uint8
}

// genIndex maps a session's generation ids onto dense slots: layer l's
// generation g sits at base[l]+g, below base[l+1]. A flat session is the
// one layer [0, G), and the zero index rejects every id. ids maps the
// other way, slot to id.
type genIndex struct {
	base []int
	ids  []uint32
}

// newGenIndex indexes ids as sessionGenIDs orders them: layer by layer,
// each layer's generations numbered from 0. It keeps ids.
func newGenIndex(ids []uint32) genIndex {
	base := []int{0}
	for i, id := range ids {
		for rlnc.LayerOf(id) >= len(base) {
			base = append(base, i)
		}
	}
	return genIndex{base: append(base, len(ids)), ids: ids}
}

// slot returns gen's slot, or false for an id outside the session.
func (x genIndex) slot(gen uint32) (int, bool) {
	l, g := rlnc.LayerOf(gen), rlnc.GenOf(gen)
	if l >= len(x.base)-1 || g >= x.base[l+1]-x.base[l] {
		return 0, false
	}
	return x.base[l] + g, true
}

// streamSeed derives the seed of the node's i-th rng stream from Seed;
// stream 0 is Seed itself. The golden-ratio multiplier keeps the streams
// of nodes with consecutive seeds apart.
func streamSeed(seed int64, i int) int64 {
	return seed ^ int64(uint64(i)*0x9E3779B97F4A7C15)
}

// maxTraceHopsPerReport bounds the hop cells a node keeps between stats
// reports, and so ships per report, so a traced burst cannot bloat the
// control plane.
const (
	maxTraceHopsPerReport = 256
	// maxLinksPerReport bounds the link scorecards shipped per stats
	// report; degree is small, so the cap only matters for a node that
	// heard from many transient peers.
	maxLinksPerReport = 64
)

// NewNode creates a node bound to ep.
func NewNode(ep transport.Endpoint, cfg NodeConfig) *Node {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewNodeMetrics(nil, "")
	}
	return &Node{
		ep:         ep,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		links:      obs.NewLinkTracker(0),
		hops:       obs.HopCells{Max: maxTraceHopsPerReport},
		joinedCh:   make(chan error, 1),
		completeCh: make(chan struct{}),
		leftCh:     make(chan struct{}),
	}
}

// ID returns the node's overlay id (0 before the welcome arrives).
func (n *Node) ID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.id
}

// Joined resolves once the tracker accepts or rejects the hello.
func (n *Node) Joined() <-chan error { return n.joinedCh }

// Completed closes once the content is fully decoded.
func (n *Node) Completed() <-chan struct{} { return n.completeCh }

// Left closes once a graceful leave is acknowledged.
func (n *Node) Left() <-chan struct{} { return n.leftCh }

// Progress returns the fraction of total rank gathered in [0,1].
func (n *Node) Progress() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.totalGens == 0 {
		return 0
	}
	return float64(n.rankLocked()) / float64(n.totalGens*n.params.GenSize)
}

// rankLocked sums the rank of every generation. Callers hold n.mu.
func (n *Node) rankLocked() int {
	rank := 0
	for i := range n.gens {
		if rc := n.gens[i].rc; rc != nil {
			rank += rc.Rank()
		}
	}
	return rank
}

// Stats returns (received, innovative) packet counts.
func (n *Node) Stats() (received, innovative int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.received, n.innovative
}

// Health summarises the node's download state for obs snapshots.
func (n *Node) Health() obs.NodeHealth {
	n.mu.Lock()
	defer n.mu.Unlock()
	rank := n.rankLocked()
	h := obs.NodeHealth{
		ID:         n.id,
		Joined:     n.joined,
		Degree:     n.degreeLocked(),
		Rank:       rank,
		MaxRank:    n.totalGens * n.params.GenSize,
		GensDone:   n.gensDone,
		TotalGens:  n.totalGens,
		Received:   n.received,
		Innovative: n.innovative,
		Complete:   n.complete,
	}
	if h.MaxRank > 0 {
		h.Progress = float64(rank) / float64(h.MaxRank)
	}
	return h
}

// Content reassembles the decoded blob; it errors until completion.
func (n *Node) Content() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.complete {
		return nil, rlnc.ErrIncomplete
	}
	if len(n.layerSizes) > 0 {
		out := make([]byte, 0, n.contentLen)
		for l := range n.layerSizes {
			slab, err := n.layerBytesLocked(l)
			if err != nil {
				return nil, err
			}
			out = append(out, slab...)
		}
		return out, nil
	}
	return n.slotBytesLocked(0, len(n.gens), n.contentLen)
}

// CompletedLayers returns, for layered sessions, how many consecutive
// priority layers (from the base) are fully decoded — the "resolution"
// currently playable. Flat sessions report 1 when complete, else 0.
func (n *Node) CompletedLayers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.layerSizes) == 0 {
		if n.complete {
			return 1
		}
		return 0
	}
	done := 0
	for l := range n.layerSizes {
		if !n.layerCompleteLocked(l) {
			break
		}
		done++
	}
	return done
}

// Layer returns the decoded bytes of priority layer l once it completes.
func (n *Node) Layer(l int) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l < 0 || l >= len(n.layerSizes) {
		return nil, fmt.Errorf("protocol: layer %d out of range [0,%d)", l, len(n.layerSizes))
	}
	if !n.layerCompleteLocked(l) {
		return nil, rlnc.ErrIncomplete
	}
	return n.layerBytesLocked(l)
}

// layerCompleteLocked reports whether every generation of layer l decoded.
func (n *Node) layerCompleteLocked(l int) bool {
	for _, gs := range n.gens[n.slots.base[l]:n.slots.base[l+1]] {
		if gs.rc == nil || !gs.rc.Complete() {
			return false
		}
	}
	return true
}

// layerBytesLocked reassembles layer l (callers ensure completeness).
func (n *Node) layerBytesLocked(l int) ([]byte, error) {
	return n.slotBytesLocked(n.slots.base[l], n.slots.base[l+1], n.layerSizes[l])
}

// slotBytesLocked reassembles the first size bytes of the generations in
// slots [from, to), which callers ensure are decoded.
func (n *Node) slotBytesLocked(from, to, size int) ([]byte, error) {
	out := make([]byte, 0, size)
	for _, gs := range n.gens[from:to] {
		src, err := gs.rc.Decode()
		if err != nil {
			return nil, err
		}
		for _, pkt := range src {
			out = append(out, pkt...)
		}
	}
	return out[:size], nil
}

// Run joins the session and processes messages until the context is
// cancelled or the node leaves gracefully. It always sends the hello
// itself; callers watch Joined / Completed / Left.
func (n *Node) Run(ctx context.Context) error {
	// Scope the clock to Run's lifetime: after a graceful leave Run
	// returns, and a departed node must stop proving liveness to its
	// former children. Run waits for the clock, so no duty sends after Run
	// has returned.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// A first hello that does not reach the tracker (dropped into a full
	// queue, or a TCP dial or write that outlasts QueueWait) is not fatal:
	// the clock re-sends it while the node is un-joined.
	_ = n.sendHello(ctx) //nolint:errcheck // retried by the clock
	clockDone := make(chan struct{})
	go func() { defer close(clockDone); n.clock(ctx) }()
	defer func() { cancel(); <-clockDone }()

	// Everything the receive path sends (forwarded frames, catch-up
	// bursts, echoes, completion and re-join messages) goes out with ctx
	// itself. Run's callers give it no deadline, so the transport bounds a
	// full-queue wait at QueueWait and no frame pays for a timer of its
	// own; cancelling ctx still ends a wait in progress when Run returns.
	//
	// Whoever absorbs a packet also recodes the frame it forwards, outside
	// n.mu, so each of them owns an rng: the receive loop when it absorbs
	// inline, else every decode worker.
	var fwdRng *rand.Rand
	if n.cfg.DecodeWorkers > 1 {
		n.decodeQ = make([]chan decodeJob, n.cfg.DecodeWorkers)
		for i := range n.decodeQ {
			q := make(chan decodeJob, 64)
			n.decodeQ[i] = q
			n.decodeWG.Add(1)
			go n.decodeWorker(ctx, q, rand.New(rand.NewSource(streamSeed(n.cfg.Seed, 1+i))))
		}
		// The receive loop is the only sender, so once Run unwinds no
		// more jobs can arrive and the queues can close.
		defer func() {
			for _, q := range n.decodeQ {
				close(q)
			}
			n.decodeWG.Wait()
		}()
	} else {
		fwdRng = rand.New(rand.NewSource(streamSeed(n.cfg.Seed, 1)))
	}

	// The loop takes frames in batches and reads the clock once per batch:
	// every frame in it arrived by then. Neither the data nor the
	// keepalive handler keeps its frame (the packet and the report are
	// copies), so the whole batch goes back to the transport in one
	// release once its last frame is handled; a control frame is cleared
	// from the batch instead, as its handler may keep the body.
	rx := transport.Batched(n.ep)
	var batch [transport.RecvBatchLen]transport.Frame
	for {
		k, err := rx.RecvBatch(ctx, batch[:])
		if err != nil {
			return fmt.Errorf("protocol: node recv: %w", err)
		}
		now := time.Now()
		for i := range batch[:k] {
			f := &batch[i]
			if IsKeepalive(f.Msg) {
				n.handleKeepalive(ctx, f.From, f.Msg, now)
				continue
			}
			if IsData(f.Msg) {
				n.handleData(ctx, f.From, f.Msg, fwdRng, now)
				continue
			}
			typ, body, err := SplitControl(f.Msg)
			*f = transport.Frame{} // not released: the handler may keep body
			if err != nil {
				continue
			}
			done, err := n.handleControl(ctx, typ, body)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
		}
		transport.ReleaseBatch(batch[:k])
	}
}

func (n *Node) handleControl(ctx context.Context, typ MsgType, body []byte) (done bool, err error) {
	switch typ {
	case MsgWelcome:
		var w Welcome
		if err := UnmarshalControl(typ, body, &w); err != nil {
			return false, nil
		}
		if err := n.applyWelcome(w); err != nil {
			select {
			case n.joinedCh <- err:
			default: // re-join welcome; nobody is waiting
			}
			return true, err
		}
		select {
		case n.joinedCh <- nil:
		default: // re-join welcome; nobody is waiting
		}
	case MsgRedirect:
		var r Redirect
		if err := UnmarshalControl(typ, body, &r); err != nil || !validThread(r.Thread) {
			return false, nil
		}
		n.applyRedirect(ctx, r)
	case MsgGoodbyeAck:
		// Only a node that actually said good-bye may act on the ack: a
		// stale or forged ack to a node that never called Leave would
		// otherwise tear down Run, and a duplicate ack would panic on the
		// second close of leftCh.
		n.mu.Lock()
		acked := n.leaving && !n.left
		if acked {
			n.left = true
		}
		n.mu.Unlock()
		if !acked {
			return false, nil
		}
		close(n.leftCh)
		return true, nil
	case MsgExpelled:
		// A child's complaint got this node repaired away while it was
		// alive (slow link, lost redirect). Re-join with a fresh hello:
		// decoded generations survive, only the overlay position resets.
		n.mu.Lock()
		n.joined = false
		n.table = nil
		n.mu.Unlock()
		_ = n.sendHello(ctx) //nolint:errcheck // the clock retries while un-joined
	case MsgThreadDropped:
		var td ThreadDropped
		if err := UnmarshalControl(typ, body, &td); err != nil {
			return false, nil
		}
		n.mu.Lock()
		n.table = slices.DeleteFunc(n.table, func(r heldThread) bool { return r.th == td.Thread })
		n.mu.Unlock()
	case MsgThreadAdded:
		var ta ThreadAdded
		if err := UnmarshalControl(typ, body, &ta); err != nil || !validThread(ta.Thread) {
			return false, nil
		}
		n.mu.Lock()
		r := n.addThreadLocked(ta.Thread)
		r.held, r.heard = true, time.Now()
		n.mu.Unlock()
		if ta.ChildAddr != "" {
			// Serve the displaced child immediately with a catch-up burst.
			n.applyRedirect(ctx, Redirect{Thread: ta.Thread, ChildAddr: ta.ChildAddr})
		}
	case MsgError:
		var e ErrorMsg
		if err := UnmarshalControl(typ, body, &e); err != nil {
			return false, nil
		}
		n.mu.Lock()
		joined := n.joined
		n.mu.Unlock()
		if !joined {
			rejection := fmt.Errorf("protocol: join rejected: %s", e.Reason)
			select {
			case n.joinedCh <- rejection:
			default: // an earlier welcome already filled the slot
			}
			return true, rejection
		}
	}
	return false, nil
}

func (n *Node) applyWelcome(w Welcome) error {
	params, err := w.Session.Params()
	if err != nil {
		return err
	}
	if w.Session.ContentLen <= 0 {
		return errors.New("protocol: welcome without content length")
	}
	genIDs, err := sessionGenIDs(w.Session, params)
	if err != nil {
		return err
	}
	for _, th := range w.Threads {
		if !validThread(th) {
			return fmt.Errorf("protocol: welcome thread %d out of range", th)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.id = w.ID
	n.joined = true
	if n.gens == nil {
		// The first welcome fixes the session. A re-join comes from the
		// same tracker with the same session, and what the node decoded
		// before its expulsion survives it.
		n.field = params.Field
		n.params = params
		n.contentLen = w.Session.ContentLen
		n.layerSizes = append([]int(nil), w.Session.LayerSizes...)
		n.slots = newGenIndex(genIDs)
		n.gens = make([]genSlot, len(genIDs))
		n.done = make([]uint64, (len(genIDs)+63)/64)
		n.totalGens = len(genIDs)
	}
	n.leaseEvery = time.Duration(w.LeaseMillis) * time.Millisecond
	n.statsEvery = time.Duration(w.StatsMillis) * time.Millisecond
	now := time.Now()
	table := make([]heldThread, 0, len(w.Threads))
	for _, th := range w.Threads {
		r := heldThread{th: th}
		if known := n.threadLocked(th); known != nil {
			r = *known
		}
		r.held, r.heard = true, now
		table = append(table, r)
	}
	n.table = table
	return nil
}

// sessionGenIDs enumerates every generation id a session uses: a flat
// session numbers them 0..G-1; a layered one namespaces per layer.
func sessionGenIDs(sp SessionParams, params rlnc.Params) ([]uint32, error) {
	if !sp.Layered() {
		g := params.Generations(sp.ContentLen)
		ids := make([]uint32, 0, g)
		for i := 0; i < g; i++ {
			ids = append(ids, uint32(i))
		}
		return ids, nil
	}
	total := 0
	var ids []uint32
	for l, size := range sp.LayerSizes {
		if size <= 0 {
			return nil, fmt.Errorf("protocol: layer %d size %d", l, size)
		}
		total += size
		for g := 0; g < params.Generations(size); g++ {
			ids = append(ids, rlnc.LayerGen(l, g))
		}
	}
	if total != sp.ContentLen {
		return nil, fmt.Errorf("protocol: layer sizes sum %d, content %d", total, sp.ContentLen)
	}
	return ids, nil
}

func (n *Node) applyRedirect(ctx context.Context, r Redirect) {
	n.mu.Lock()
	if r.ChildAddr == "" {
		if rec := n.threadLocked(r.Thread); rec != nil {
			rec.down.set("")
		}
		n.mu.Unlock()
		return
	}
	// The child is kept even on a thread the node does not hold yet: over
	// a lossy control plane a redirect can overtake the welcome.
	n.addThreadLocked(r.Thread).down.set(r.ChildAddr)
	// Catch-up burst: one fresh combination per generation we already
	// hold, so a late joiner is not starved until the round-robin source
	// cycles back.
	var bursts [][]byte
	for i := range n.gens {
		gs := &n.gens[i]
		if gs.rc == nil {
			continue
		}
		if p, ok := gs.rc.Packet(n.rng); ok {
			bursts = append(bursts, EncodeDataSeq(n.field, r.Thread,
				n.nextSeqLocked(r.Thread), gs.life.EmitNanos(), n.forwardTraceLocked(i), p))
			p.Release()
		}
	}
	child := r.ChildAddr
	n.mu.Unlock()
	for _, frame := range bursts {
		n.sendData(ctx, child, frame)
	}
}

// handleData takes one data frame through the node's first n.mu section:
// link scoring, liveness and the generation's recoder. Then absorb runs
// inline with r, or on the frame's decode worker. now is the receive
// batch's clock reading.
func (n *Node) handleData(ctx context.Context, from string, frame []byte, r *rand.Rand, now time.Time) {
	n.mu.Lock()
	if !n.joined {
		n.mu.Unlock()
		return
	}
	th, seq, emit, tc, p, err := DecodeDataSeq(n.field, frame)
	if err != nil {
		n.mu.Unlock()
		return
	}
	// The batch's clock read stamps the link score, the thread's liveness
	// and, on a traced frame, the hop cell's arrival; it was taken before
	// any decode work, so the cell measures propagation.
	arrival := now.UnixNano()
	// Score the link before any protocol-level gating: loss estimation is
	// about what the wire delivered, and a frame for a foreign generation
	// still proves the link carried it.
	n.links.ObserveFrame(from, th, seq, len(frame), arrival)
	slot, ok := n.slots.slot(p.Gen)
	if !ok {
		n.mu.Unlock()
		p.Release()
		return
	}
	var child string
	if r := n.threadLocked(th); r != nil {
		if r.held {
			r.parent, r.heard = from, now
		}
		if r.down.wants(slot) {
			child = r.down.child
		}
	}
	gs := &n.gens[slot]
	if gs.rc == nil {
		if err := n.startChunkLocked(slot); err != nil {
			n.receivedLocked()
			n.mu.Unlock()
			p.Release()
			return
		}
	}
	j := decodeJob{f: n.field, th: th, slot: slot, from: from, child: child,
		emit: emit, arrival: arrival, tc: tc, rc: gs.rc, p: p}
	n.mu.Unlock()

	if n.decodeQ == nil {
		// Inline, the batch's clock reading stands for the absorption's.
		n.absorb(ctx, &j, r, j.arrival)
		return
	}
	select {
	case n.decodeQ[slot%len(n.decodeQ)] <- j:
	default:
		// A saturated decode worker behaves like a congested link: the
		// packet is dropped, which RLNC absorbs by design.
		n.dropUnjudged(p)
	}
}

// recoderChunk is how many slots' recoders startChunkLocked makes at once.
const recoderChunk = 64

// startChunkLocked gives every slot of slot's chunk its recoder: one
// rlnc.NewRecoders call, whose recoders share their memory. Slots of a
// chunk no packet has reached yet have no recoder and cost nothing.
// Callers hold n.mu.
func (n *Node) startChunkLocked(slot int) error {
	lo := slot - slot%recoderChunk
	hi := min(lo+recoderChunk, len(n.gens))
	rcs, err := rlnc.NewRecoders(n.field, n.slots.ids[lo:hi], n.params.GenSize, n.params.PacketSize)
	if err != nil {
		return err
	}
	for i := range rcs {
		rcs[i].Instrument(n.cfg.Obs.Codec)
		n.gens[lo+i].rc = &rcs[i]
	}
	return nil
}

// receivedLocked counts one received frame of a session generation. It
// runs in the n.mu section that records the frame's verdict, or that
// drops the frame before one, so every stats report reads Received =
// Innovative + Redundant + frames dropped before a verdict: a frame still
// queued for a decode worker is not counted yet. Callers hold n.mu.
func (n *Node) receivedLocked() {
	n.received++
	n.cfg.Obs.Received.Inc()
}

// dropUnjudged counts a frame dropped before its verdict as received, and
// releases its packet.
func (n *Node) dropUnjudged(p *rlnc.Packet) {
	n.mu.Lock()
	n.receivedLocked()
	n.mu.Unlock()
	p.Release()
}

// decodeWorker drains one shard of the decode queue until Run closes it.
// r is the worker's own rng for the frames it forwards.
func (n *Node) decodeWorker(ctx context.Context, q <-chan decodeJob, r *rand.Rand) {
	defer n.decodeWG.Done()
	for j := range q {
		// A job may have waited in the queue: absorb reads the clock.
		n.absorb(ctx, &j, r, 0)
	}
}

// absorb runs the Gaussian elimination for one received packet and, when
// the packet's thread has a child, recodes one packet of the same
// generation for it, in one recoder call outside n.mu, so independent
// generations run it concurrently. The node's bookkeeping and telemetry
// then take one n.mu section: the frame's count and verdict, its link
// score, its generation's lifecycle record and, on a traced frame, its
// hop cell. The lifecycle events go to the sink after n.mu is released,
// and the recoded packet goes down the node's own thread, preserving unit
// flow per thread. r is the caller's own rng, and now its clock reading
// in unix nanoseconds (zero: the lifecycle record reads the clock if it
// needs it). absorb consumes j.p (released back to the packet pool).
func (n *Node) absorb(ctx context.Context, j *decodeJob, r *rand.Rand, now int64) {
	if j.child == "" {
		r = nil // nobody to forward to: do not recode
	}
	innovative, rank, closed, out, err := j.rc.Absorb(j.p, r)
	if err != nil {
		n.dropUnjudged(j.p)
		return
	}
	gen := j.p.Gen
	m := n.cfg.Obs
	addr := n.ep.Addr()
	// One packet crosses at most all five lifecycle transitions, so their
	// events fit on the stack.
	var evBuf [5]obs.GenEvent
	n.mu.Lock()
	n.receivedLocked()
	if innovative {
		n.innovative++
		m.Innovative.Inc()
		m.Rank.Add(1)
	} else {
		n.redundant++
		m.Redundant.Inc()
	}
	n.links.ObservePacket(j.from, innovative)
	gs := &n.gens[j.slot]
	// Record the lifecycle transition(s) this packet caused: first-seen,
	// rank quartiles, decode completion with end-to-end delay against the
	// frame's source-emission stamp. The generation's stamp, the earliest
	// seen for it, is what a forwarded frame carries, so decode delay stays
	// end-to-end however many overlay hops the data crosses.
	events := gs.life.Observe(addr, gen, n.params.GenSize, j.emit, rank, now, m, evBuf[:0])
	justCompleted := false
	if closed {
		n.done[j.slot>>6] |= 1 << (j.slot & 63)
		n.gensDone++
		m.GensDone.Set(int64(n.gensDone))
		if n.gensDone == n.totalGens && !n.complete {
			n.complete = true
			justCompleted = true
		}
	}
	// Merge the trace context and record the arrival in its hop cell.
	// First trace ID wins for a generation; the node's depth is the max hop
	// seen under that trace (recoding can deliver the same traced
	// generation along paths of different length — max is the honest depth
	// of the mix).
	if tc := j.tc; tc.Traced() {
		ts := &gs.trace
		if ts.id == 0 {
			*ts = traceState{id: tc.ID, depth: tc.Hop}
		} else if ts.id == tc.ID && tc.Hop > ts.depth {
			ts.depth = tc.Hop
		}
		fanout := 0
		if out != nil {
			fanout = 1
		}
		n.hops.Record(&gs.hops, tc.ID, gen, int(tc.Hop), innovative, fanout, j.arrival, j.emit)
	}
	var fwdTC TraceContext
	var fwdSeq int32
	var stamp int64
	if out != nil {
		fwdTC = n.forwardTraceLocked(j.slot)
		fwdSeq = n.nextSeqLocked(j.th)
		stamp = gs.life.EmitNanos()
	}
	id := n.id
	n.mu.Unlock()
	j.p.Release()

	if sink := n.cfg.GenSink; sink != nil {
		for _, e := range events {
			sink(e)
		}
	}
	if justCompleted {
		// ctx has no deadline, so a stalled tracker costs this send at most
		// QueueWait; the frames below still get forwarded.
		_ = n.toTracker(ctx, MsgComplete, Complete{ID: id}) //nolint:errcheck // best-effort
		close(n.completeCh)
	}
	if out != nil {
		buf := rlnc.GetFrameBuf()
		*buf = AppendDataSeq(*buf, j.f, j.th, fwdSeq, stamp, fwdTC, out)
		out.Release()
		n.sendData(ctx, j.child, *buf)
		rlnc.PutFrameBuf(buf)
	}
}

// forwardTraceLocked returns the trace context this node stamps on
// packets it forwards for the generation at slot: its adopted trace ID
// with the hop count advanced by one (saturating), or the zero context
// when the generation is untraced. Callers hold n.mu.
func (n *Node) forwardTraceLocked(slot int) TraceContext {
	ts := n.gens[slot].trace
	if ts.id == 0 {
		return TraceContext{}
	}
	hop := ts.depth
	if hop < 255 {
		hop++
	}
	return TraceContext{ID: ts.id, Hop: hop}
}

// nextSeqLocked returns the next outbound sequence number for thread th,
// advancing the per-thread counter (wrapping in 24-bit space). The
// counter never resets: a thread dropped and added again, or lost to an
// expulsion and given back by the re-join, continues where it stopped,
// so its child's link tracker reads a gap as loss, not as reordering.
// Callers hold n.mu.
func (n *Node) nextSeqLocked(th int) int32 {
	for i := range n.seqs {
		if s := &n.seqs[i]; s.th == th {
			seq := s.next
			s.next = (seq + 1) % SeqMod
			return int32(seq)
		}
	}
	n.seqs = append(n.seqs, threadSeq{th: th, next: 1})
	return 0
}

// validThread reports whether th fits a data frame's 15-bit thread field.
// The node makes no record for a thread outside it: nothing could be sent
// on it, and a negative one would index the keepalive's generation
// rotation out of range.
func validThread(th int) bool { return th >= 0 && th < int(tracedFlag) }

// threadLocked returns the node's record of thread th, or nil. Callers
// hold n.mu.
func (n *Node) threadLocked(th int) *heldThread {
	for i := range n.table {
		if n.table[i].th == th {
			return &n.table[i]
		}
	}
	return nil
}

// addThreadLocked returns the record of thread th, made not held when
// there is none. Callers hold n.mu.
func (n *Node) addThreadLocked(th int) *heldThread {
	if r := n.threadLocked(th); r != nil {
		return r
	}
	n.table = append(n.table, heldThread{th: th})
	return &n.table[len(n.table)-1]
}

// degreeLocked counts the threads the node holds. Callers hold n.mu.
func (n *Node) degreeLocked() int {
	d := 0
	for i := range n.table {
		if n.table[i].held {
			d++
		}
	}
	return d
}

// sendData forwards a data frame with a bounded wait: when the child's
// queue is full the frame is dropped, exactly as a congested link would
// drop a datagram. RLNC makes drops harmless — no specific packet is ever
// required, only enough innovative ones. The bound is ctx's deadline, or
// transport.QueueWait for the receive path's deadline-free context.
func (n *Node) sendData(ctx context.Context, to string, frame []byte) {
	if IsData(frame) {
		n.cfg.Obs.Emitted.Inc()
	}
	_ = n.ep.Send(ctx, to, frame) //nolint:errcheck // lossy data plane
}

// handleKeepalive refreshes the liveness clock of the sending parent and
// runs the RTT echo exchange: probes are answered with an echo of their
// transmit stamp, echoes close the loop into the peer's RTT EWMA. A probe
// from the thread's child also carries the child's completion report.
// now is the receive batch's clock reading.
func (n *Node) handleKeepalive(ctx context.Context, from string, frame []byte, now time.Time) {
	ki, err := DecodeKeepaliveEcho(frame)
	if err != nil {
		return
	}
	th := ki.Thread
	var rep genSet
	if ki.IsProbe() {
		// A malformed tail reports nothing full.
		rep, _ = decodeReport(frame)
	}
	n.mu.Lock()
	if !n.joined {
		n.mu.Unlock()
		return
	}
	// A probe can also arrive from this node's own child (children probe
	// the parents they measure); only a frame from upstream may refresh
	// the thread's liveness clock, or a probing child would mask its
	// parent's death from the complaint protocol.
	if r := n.threadLocked(th); r != nil && !r.down.hear(from, rep, ki.IsProbe()) && r.held {
		r.parent, r.heard = from, now
	}
	if ki.IsEcho() {
		if rtt := now.UnixNano() - ki.EchoNanos - ki.HoldNanos; rtt > 0 {
			n.links.ObserveRTT(from, rtt)
		}
	}
	n.mu.Unlock()
	if ki.IsProbe() {
		// Answer immediately, so HoldNanos (the receiver's processing
		// delay) is negligible and reported as zero.
		n.sendData(ctx, from, EncodeKeepaliveEcho(th, 0, ki.TxNanos, 0))
	}
}

// Clock timing. An un-joined node re-sends its hello, and a leaving node
// its good-bye, every retryEvery. A probing node checks every reportEvery
// whether the completion report it sends up a thread has moved: a paced
// source streams in order, so its re-sends wait on how soon the first
// open slot's completion climbs.
// clockPoll bounds the clock's sleep, so a duty that wakes up (after a
// welcome or a Leave) is noticed within it.
const (
	retryEvery  = 500 * time.Millisecond
	reportEvery = 2 * time.Millisecond
	clockPoll   = 250 * time.Millisecond
	// reportShare sets how far a report must move before it goes up
	// early: by 1/reportShare of the slots the last one left open.
	reportShare = 8
)

// clockState is the node state that decides which duties are awake; the
// clock reads it once per pass.
type clockState struct {
	joined, leaving        bool
	leaseEvery, statsEvery time.Duration
}

// duty is one periodic task on the node's clock. period gives its
// interval in the current state, zero while it sleeps; perSend marks a
// keepalive-plane duty, which runs on the clock's own context, each of its
// sends bounded by the transport's QueueWait alone; every and next are
// the clock's bookkeeping.
type duty struct {
	period  func(clockState) time.Duration
	run     func(context.Context)
	perSend bool
	every   time.Duration
	next    time.Time
}

// awake returns a duty period: p, but at least a millisecond, while the
// duty is active, and zero otherwise. The floor keeps a tiny
// ComplaintTimeout from spinning the clock.
func awake(active bool, p time.Duration) time.Duration {
	if !active {
		return 0
	}
	return max(p, time.Millisecond)
}

// clock runs every periodic duty of the node on one goroutine. Each pass
// reads the node state once, runs the duties that are due and sleeps
// until the next one is, at most clockPoll. A duty that wakes first runs
// one period later, and each run is rescheduled one period on.
//
// No control run may hold the clock longer than the shortest active
// control period: a send blocked behind a stalled tracker would otherwise
// silence the keepalives, and the node's children would complain about a
// healthy parent. For the same reason keepalives come first in a pass.
// Keepalive-plane runs are bounded per beat instead: one stalled peer
// costs its own beat at most QueueWait, not the beats after it. A failed
// send is retried a period later, so runs drop their errors.
func (n *Node) clock(ctx context.Context) {
	ct := n.cfg.ComplaintTimeout
	duties := []*duty{
		{period: func(clockState) time.Duration { return awake(ct > 0, ct/4) }, run: n.keepalive, perSend: true},
		{period: func(s clockState) time.Duration { return awake(ct > 0 && s.joined, reportEvery) }, run: n.report, perSend: true},
		{period: func(clockState) time.Duration { return awake(ct > 0, ct/2) }, run: n.checkComplaints},
		{period: func(s clockState) time.Duration { return awake(!s.joined, retryEvery) },
			run: func(ctx context.Context) { _ = n.sendHello(ctx) }},
		{period: func(s clockState) time.Duration { return awake(s.leaving, retryEvery) },
			run: func(ctx context.Context) { _ = n.sendGoodbye(ctx) }},
		{period: func(s clockState) time.Duration { return awake(s.joined && s.leaseEvery > 0, s.leaseEvery) },
			run: n.renewLease},
		// One report per announced interval: at most one control message
		// per node per reporting interval, by construction.
		{period: func(s clockState) time.Duration { return awake(s.joined && s.statsEvery > 0, s.statsEvery) },
			run: func(ctx context.Context) { _ = n.toTracker(ctx, MsgStatsReport, n.buildStatsReport()) }},
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		n.mu.Lock()
		s := clockState{joined: n.joined, leaving: n.leaving && !n.left,
			leaseEvery: n.leaseEvery, statsEvery: n.statsEvery}
		n.mu.Unlock()
		now := time.Now()
		var bound time.Duration
		for _, d := range duties {
			if d.every = d.period(s); d.every == 0 {
				d.next = time.Time{}
				continue
			}
			if d.next.IsZero() {
				d.next = now.Add(d.every)
			}
			if !d.perSend && (bound == 0 || d.every < bound) {
				bound = d.every
			}
		}
		wake := now.Add(clockPoll)
		for _, d := range duties {
			if d.every == 0 {
				continue
			}
			if !d.next.After(now) {
				if d.perSend {
					d.run(ctx)
				} else {
					runCtx, cancel := context.WithTimeout(ctx, bound)
					d.run(runCtx)
					cancel()
				}
				if d.next = d.next.Add(d.every); d.next.Before(now) {
					d.next = now.Add(d.every)
				}
			}
			if d.next.Before(wake) {
				wake = d.next
			}
		}
		timer.Reset(time.Until(wake))
	}
}

// beat is one keepalive-plane frame the clock sends: to a child, a coded
// frame or a probe; to a parent, a probe with its completion report.
type beat struct {
	th    int
	to    string
	frame []byte // nil: a probe, stamped as it is sent
	tail  genSet // the completion report on a probe to a parent
}

// keepalive proves this node alive to its children and measures RTT to
// its parents, on the plane coded frames ride, so that upstream
// starvation is never mistaken for this node's death. A child gets a
// fresh combination of a rotating generation the node holds rank in and
// the child's subtree does not hold in full, which keeps a quiet subtree
// progressing even when the node's own inflow is idle (it decoded
// everything and upstream went quiet), or else a probe keepalive. A
// parent gets a probe, whose echo closes the loop in handleKeepalive and
// whose tail reports what the thread's subtree below it holds.
func (n *Node) keepalive(ctx context.Context) {
	n.mu.Lock()
	beats := make([]beat, 0, 2*len(n.table))
	for i := range n.table {
		r := &n.table[i]
		if r.down.child == "" {
			continue
		}
		b := beat{th: r.th, to: r.down.child}
		if len(n.gens) > 0 {
			g := (n.hbGen + r.th) % len(n.gens)
			if gs := &n.gens[g]; gs.rc != nil && r.down.wants(g) {
				if p, ok := gs.rc.Packet(n.rng); ok {
					b.frame = EncodeDataSeq(n.field, r.th, n.nextSeqLocked(r.th),
						gs.life.EmitNanos(), n.forwardTraceLocked(g), p)
					p.Release()
				}
			}
		}
		beats = append(beats, b)
	}
	n.hbGen++
	beats = n.probesLocked(beats, false)
	n.mu.Unlock()
	n.sendBeats(ctx, beats)
}

// report probes early the parent of every thread whose completion report
// has moved enough since the last probe on it, so a report climbs a
// thread within a few reportEvery per hop rather than ComplaintTimeout/4.
func (n *Node) report(ctx context.Context) {
	n.mu.Lock()
	beats := n.probesLocked(nil, true)
	n.mu.Unlock()
	n.sendBeats(ctx, beats)
}

// probesLocked appends a probe with its completion report for the parent
// of every thread or, when changed is set, of every thread whose report
// has moved enough since the last one sent to that parent: it went to
// another parent, no longer marks full a slot the last one did (a reset
// below), its first open slot (the low-water mark) rose, or it marks full
// at least 1/reportShare of the slots the last one left open, and at
// least one. Early probes thus grow with the generations decoded, not
// with time: a thread whose data trickles in sends few, an in-order
// stream's completions go up as they happen, and the last open slots
// still go up one by one. Callers hold n.mu.
func (n *Node) probesLocked(beats []beat, changed bool) []beat {
	if !n.joined {
		return beats
	}
	for i := range n.table {
		r := &n.table[i]
		if r.parent == "" {
			continue
		}
		words, open := n.foldLocked(r)
		first := firstOpen(words)
		if last := r.sent; changed && last.to == r.parent && last.set.within(words) &&
			first <= last.first && last.open-open < max(1, last.open/reportShare) {
			continue
		}
		rep := foldWords(words)
		r.sent = sentReport{to: r.parent, set: rep, open: open, first: first}
		beats = append(beats, beat{th: r.th, to: r.parent, tail: rep})
	}
	return beats
}

// sendBeats sends the beats in order on the clock's own deadline-free
// context, so the transport bounds each at QueueWait: one stalled peer
// cannot silence the beats queued after it.
func (n *Node) sendBeats(ctx context.Context, beats []beat) {
	for _, b := range beats {
		frame := b.frame
		if frame == nil {
			frame = appendReport(EncodeKeepaliveEcho(b.th, time.Now().UnixNano(), 0, 0), b.tail)
		}
		n.sendData(ctx, b.to, frame)
	}
}

// foldLocked returns, as bit words over the session's slots, the
// completion report the node sends up thread r, and how many slots it
// leaves open: the generations the node has decoded itself, less, when it
// has a child on r, those the child's last report does not mark full.
// The words are n.foldBuf, valid until the next call. Callers hold n.mu.
func (n *Node) foldLocked(r *heldThread) ([]uint64, int) {
	n.foldBuf = append(n.foldBuf[:0], n.done...)
	for w := range n.foldBuf {
		n.foldBuf[w] &= r.down.below(w)
	}
	open := n.totalGens
	for _, w := range n.foldBuf {
		open -= bits.OnesCount64(w)
	}
	return n.foldBuf, open
}

// renewLease renews this node's liveness lease with the tracker. The
// complaint protocol only detects failed nodes that have children; the
// lease is how a bottom clip (and every other node) proves it is still
// alive, so a crash without a good-bye is eventually swept from M. Leases
// only gate the tracker's own sweep: a node that renews but forwards
// nothing is still repaired away by its children's complaints.
func (n *Node) renewLease(ctx context.Context) {
	n.mu.Lock()
	id := n.id
	n.leaseSent++
	n.mu.Unlock()
	_ = n.toTracker(ctx, MsgLease, Lease{ID: id}) //nolint:errcheck // renewed next period
}

// buildStatsReport snapshots the node's telemetry in one n.mu section:
// the counters, the generations' ranks and lifecycle records, the link
// scorecards, and the hop cells recorded since the previous report, which
// it drains. The quantiles are computed after n.mu is released.
func (n *Node) buildStatsReport() StatsReport {
	n.mu.Lock()
	r := StatsReport{
		ID:            n.id,
		MaxRank:       n.totalGens * n.params.GenSize,
		GensDone:      n.gensDone,
		TotalGens:     n.totalGens,
		Complete:      n.complete,
		Received:      uint64(n.received),
		Innovative:    uint64(n.innovative),
		Redundant:     uint64(n.redundant),
		Complaints:    n.complaintsSent,
		LeaseRenewals: n.leaseSent,
	}
	r.GenRanks = make([]int, len(n.gens))
	var life obs.LifeSummary
	for i := range n.gens {
		gs := &n.gens[i]
		if gs.rc != nil {
			r.GenRanks[i] = gs.rc.Rank()
			r.Rank += r.GenRanks[i]
		}
		life.Add(&gs.life, n.params.GenSize)
	}
	for _, q := range n.decodeQ {
		r.QueueDepth += len(q)
	}
	r.TraceHops = n.hops.Drain()
	r.Links = n.links.Compact(maxLinksPerReport)
	n.mu.Unlock()
	if d := life.Delays; len(d) > 0 {
		r.DelayP50Nanos = int64(obs.Quantile(d, 0.50))
		r.DelayP90Nanos = int64(obs.Quantile(d, 0.90))
		r.DelayP99Nanos = int64(obs.Quantile(d, 0.99))
	}
	r.OverheadPermille = life.OverheadPermille()
	return r
}

// checkComplaints reports every held thread that stayed silent for
// longer than ComplaintTimeout. Completed nodes keep complaining: they
// are still relays, and a dead ancestor silently starves their whole
// subtree otherwise.
func (n *Node) checkComplaints(ctx context.Context) {
	n.mu.Lock()
	if !n.joined {
		n.mu.Unlock()
		return
	}
	now := time.Now()
	var complaints []Complaint
	for i := range n.table {
		if r := &n.table[i]; r.held && now.Sub(r.heard) > n.cfg.ComplaintTimeout {
			complaints = append(complaints, Complaint{ID: n.id, Thread: r.th, ParentAddr: r.parent})
			r.heard = now // rate-limit: one complaint per timeout
		}
	}
	n.complaintsSent += uint64(len(complaints))
	n.mu.Unlock()
	for _, c := range complaints {
		n.cfg.Obs.Complaints.Inc()
		_ = n.toTracker(ctx, MsgComplaint, c) //nolint:errcheck // best-effort
	}
}

// Congest asks the tracker for §5 congestion relief: one of the node's
// threads is dropped, its parent and child joined directly. The change
// lands asynchronously via MsgThreadDropped.
func (n *Node) Congest(ctx context.Context) error {
	n.mu.Lock()
	id, joined := n.id, n.joined
	n.mu.Unlock()
	if !joined {
		return errors.New("protocol: congest before join")
	}
	return n.toTracker(ctx, MsgCongested, Congested{ID: id})
}

// Uncongest asks the tracker to regrow one thread (§5 recovery). The
// change lands asynchronously via MsgThreadAdded.
func (n *Node) Uncongest(ctx context.Context) error {
	n.mu.Lock()
	id, joined := n.id, n.joined
	n.mu.Unlock()
	if !joined {
		return errors.New("protocol: uncongest before join")
	}
	return n.toTracker(ctx, MsgUncongested, Uncongested{ID: id})
}

// Degree returns the node's current thread count.
func (n *Node) Degree() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.degreeLocked()
}

// Leave performs the good-bye protocol; Run returns once the ack arrives.
// Until then the node's clock re-sends the good-bye every retryEvery (the
// ack can be dropped under congestion; the tracker's handling is
// idempotent), for as long as Run lives.
func (n *Node) Leave(ctx context.Context) error {
	n.mu.Lock()
	joined := n.joined
	if joined {
		n.leaving = true
	}
	n.mu.Unlock()
	if !joined {
		return errors.New("protocol: leave before join")
	}
	return n.sendGoodbye(ctx)
}

// sendHello asks the tracker to admit this node. The clock re-sends it
// while the node is un-joined: over lossy links either the hello or the
// welcome can vanish, and after an expulsion the re-join hello can be
// lost too. The tracker answers duplicates idempotently.
func (n *Node) sendHello(ctx context.Context) error {
	return n.toTracker(ctx, MsgHello, Hello{Addr: n.ep.Addr(), Degree: n.cfg.Degree})
}

// sendGoodbye tells the tracker this node is leaving.
func (n *Node) sendGoodbye(ctx context.Context) error {
	n.mu.Lock()
	id := n.id
	n.mu.Unlock()
	return n.toTracker(ctx, MsgGoodbye, Goodbye{ID: id})
}

// toTracker encodes one control message and sends it to the tracker.
func (n *Node) toTracker(ctx context.Context, typ MsgType, payload interface{}) error {
	msg, err := EncodeControl(typ, payload)
	if err != nil {
		return err
	}
	return n.ep.Send(ctx, n.cfg.TrackerAddr, msg)
}
