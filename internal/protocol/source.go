package protocol

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"time"

	"ncast/internal/obs"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// Source is the broadcast server's data plane: it holds the content,
// encodes it generation by generation (flat or §5 priority-layered), and
// pumps one coded packet per round on every thread that currently has a
// first clip, of a generation the thread's subtree does not yet hold in
// full. The tracker updates thread-to-child routing via SetChild as
// nodes join, leave, and get repaired.
type Source struct {
	ep     transport.Endpoint
	params rlnc.Params
	fe     *rlnc.FileEncoder
	le     *rlnc.LayeredEncoder // non-nil in layered mode
	length int
	rng    *rand.Rand
	mu     sync.Mutex
	// down is, per thread, its child and the completion report of the
	// child's subtree; Run skips the generations the report marks full.
	down []downstream
	// slots maps the session's generation ids onto the slots of gens.
	slots genIndex
	// gens is Run's per-generation table, by slot; only Run touches it.
	gens      []sourceGen
	traceSeed int64
	// RoundInterval paces the pump at one round per interval, kept on a
	// deadline rather than slept after each round's sends. A paced flat
	// source streams in order: each thread gives a generation its share
	// of frames and moves on (see streamPlan). Zero relies on transport
	// backpressure alone and sweeps every open generation.
	RoundInterval time.Duration
	// share is the frames a paced thread gives each generation before it
	// moves on: ⌈GenSize/d⌉ for the overlay's degree d, so a node fed on
	// d threads gets a generation's rank from one share on each. It is
	// GenSize until NewTracker sets it from the tracker's degree.
	share int
	// Obs carries optional instrumentation; nil is a no-op.
	Obs *obs.SourceMetrics
	// TraceRate enables dissemination tracing: every TraceRate-th
	// generation (deterministically chosen by a seed-keyed hash, 1 = all)
	// is emitted with a trace context that nodes propagate and report.
	// 0 disables sampling.
	TraceRate int
	// Systematic makes the source emit each generation's h source packets
	// uncoded (and flagged) before switching to random coding, so
	// loss-free receivers hit the decoder's identity fast path and only
	// the repair tail pays Gaussian cost. Ignored in layered mode. Set
	// before Run.
	Systematic bool
	// seq is the next per-thread sequence number; only Run touches it.
	seq []uint32
}

// sourceGen is Run's record of one generation.
type sourceGen struct {
	// emitAt is the unix-nano time of the source's first emission of the
	// generation, 0 before it: the fixed epoch every receiver measures
	// its end-to-end decode delay against. Stamped into every data frame
	// of the generation and propagated by forwarding nodes.
	emitAt int64
	// sysSent counts the systematic packets emitted.
	sysSent uint16
}

// NewSource wraps content for broadcasting on k threads.
func NewSource(ep transport.Endpoint, k int, params rlnc.Params, content []byte, seed int64) (*Source, error) {
	if k <= 0 {
		return nil, fmt.Errorf("protocol: source thread count %d, want > 0", k)
	}
	fe, err := rlnc.NewFileEncoder(params, content)
	if err != nil {
		return nil, err
	}
	return newSource(&Source{ep: ep, params: params, fe: fe, length: len(content)}, k, seed)
}

// NewLayeredSource wraps content for §5 priority-layered broadcasting:
// lower layers get a larger share of the emitted stream per the weights,
// so degraded receivers complete them first.
func NewLayeredSource(ep transport.Endpoint, k int, params rlnc.LayeredParams, content []byte, seed int64) (*Source, error) {
	if k <= 0 {
		return nil, fmt.Errorf("protocol: source thread count %d, want > 0", k)
	}
	le, err := rlnc.NewLayeredEncoder(params, content)
	if err != nil {
		return nil, err
	}
	return newSource(&Source{ep: ep, params: params.Params, le: le, length: len(content)}, k, seed)
}

// newSource completes a source whose encoder is set for k threads.
func newSource(s *Source, k int, seed int64) (*Source, error) {
	ids, err := sessionGenIDs(s.Session(), s.params)
	if err != nil {
		return nil, err
	}
	s.rng = rand.New(rand.NewSource(seed))
	s.traceSeed = seed
	s.down = make([]downstream, k)
	s.seq = make([]uint32, k)
	s.slots = newGenIndex(ids)
	s.gens = make([]sourceGen, len(ids))
	s.share = s.params.GenSize
	return s, nil
}

// Session returns the session parameters matching the content.
func (s *Source) Session() SessionParams {
	sp := SessionParams{
		FieldBits:  s.params.Field.Bits(),
		GenSize:    s.params.GenSize,
		PacketSize: s.params.PacketSize,
		ContentLen: s.length,
	}
	if s.le != nil {
		for l := 0; l < s.le.Layers(); l++ {
			sp.LayerSizes = append(sp.LayerSizes, s.le.LayerSize(l))
		}
	}
	return sp
}

// traceID returns the generation's trace ID, or 0 when the generation is
// not sampled. Sampling is a deterministic splitmix64-style hash keyed by
// the source seed — it never touches the coding RNG, so enabling tracing
// does not perturb the coded stream.
func (s *Source) traceID(gen uint32) uint64 {
	rate := s.TraceRate
	if rate <= 0 {
		return 0
	}
	h := uint64(s.traceSeed) ^ (uint64(gen)+1)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if rate > 1 && h%uint64(rate) != 0 {
		return 0
	}
	if h == 0 {
		h = 1
	}
	return h
}

// SetChild routes thread th to addr (empty = hang the thread). The
// thread's completion report resets: it described the old subtree.
func (s *Source) SetChild(th int, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if th >= 0 && th < len(s.down) {
		s.down[th].set(addr)
	}
}

// observeProbe takes the completion report on a probe keepalive for
// thread th that reached the server: the prober's parent on th is the
// source. Only the thread's current child is heard.
func (s *Source) observeProbe(from string, th int, frame []byte) {
	rep, _ := decodeReport(frame) // a malformed tail reports nothing full
	s.mu.Lock()
	defer s.mu.Unlock()
	if th < len(s.down) {
		s.down[th].hear(from, rep, true)
	}
}

// Run pumps packets until the context is cancelled. In flat mode, an
// unpaced source staggers generations across threads so every thread
// carries every generation over time: each thread's cursor steps one
// generation per round, skipping the generations its child reports full,
// so with no report thread th sends generation (round+th) mod G. A paced
// source streams in order instead (streamPlan). In layered mode each
// packet's layer is sampled by priority weight. A paced source starts a
// round every RoundInterval on a deadline; an unpaced round in which no
// thread has a child and an open generation sleeps a millisecond. Every
// frame is sent on ctx itself, so with a deadline-free ctx the transport
// bounds a wait on a full queue at transport.QueueWait and a send with
// room pays for no timer.
func (s *Source) Run(ctx context.Context) error {
	gens := 1
	if s.fe != nil {
		gens = s.fe.NumGenerations()
	}
	// Run's own buffers: the routing table with its reports, copied under
	// s.mu once per round, and the per-thread cursors or, paced, the plan.
	down := make([]downstream, len(s.down))
	cursor := make([]int, len(s.down))
	for th := range cursor {
		cursor[th] = th % gens
	}
	var plan *streamPlan
	if s.RoundInterval > 0 && s.le == nil {
		plan = newStreamPlan(len(s.down), gens, s.share)
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	m := s.Obs
	if m == nil {
		m = obs.NewSourceMetrics(nil)
	}
	next := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		copy(down, s.down)
		s.mu.Unlock()
		var now int64
		if plan != nil {
			now = time.Now().UnixNano()
			plan.begin(down, now)
		}
		idle := true
		for th, d := range down {
			g := cursor[th]
			switch {
			case d.child == "":
				cursor[th] = (g + 1) % gens
				continue
			case s.le != nil:
			case plan != nil:
				if g = plan.next(th, d.full, now); g < 0 {
					continue
				}
			default:
				if g = d.full.nextOpen(g, gens); g < 0 {
					continue // the thread's whole subtree holds everything
				}
				cursor[th] = (g + 1) % gens
			}
			idle = false
			var p *rlnc.Packet
			var err error
			if s.le != nil {
				p, err = s.le.Packet(s.rng)
			} else {
				if sg := &s.gens[g]; s.Systematic && int(sg.sysSent) < s.params.GenSize {
					p, err = s.fe.Systematic(g, int(sg.sysSent))
					sg.sysSent++
				} else {
					p, err = s.fe.Packet(g, s.rng)
				}
			}
			if err != nil {
				return err
			}
			slot, _ := s.slots.slot(p.Gen)
			sg := &s.gens[slot]
			if sg.emitAt == 0 {
				sg.emitAt = time.Now().UnixNano()
			}
			// Direct children of the source sit at hop depth 1.
			tc := TraceContext{ID: s.traceID(p.Gen), Hop: 1}
			seq := s.seq[th]
			s.seq[th] = (seq + 1) % SeqMod
			// Send does not retain msg, so the frame buffer goes back to
			// its pool as soon as Send returns.
			buf := rlnc.GetFrameBuf()
			*buf = AppendDataSeq(*buf, s.params.Field, th, int32(seq), sg.emitAt, tc, p)
			p.Release()
			err = s.ep.Send(ctx, d.child, *buf)
			rlnc.PutFrameBuf(buf)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// Child unreachable or clogged: drop and keep pumping
				// other threads; repair or drainage will fix this one.
				continue
			}
			m.Packets.Inc()
		}
		if !idle {
			m.Rounds.Inc()
		}
		var wait time.Duration
		switch {
		case s.RoundInterval > 0:
			at := time.Now()
			next = nextRound(next, at, s.RoundInterval)
			wait = next.Sub(at)
		case idle:
			wait = time.Millisecond
		}
		if wait <= 0 {
			continue
		}
		if timer == nil {
			timer = time.NewTimer(wait)
		} else {
			timer.Reset(wait)
		}
		select {
		case <-timer.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// nextRound returns when a paced round after the one due at next starts,
// given the time now that round's sends ended: one interval on, or now
// once the loop has fallen more than an interval behind, so a late loop
// does not burst to catch up.
func nextRound(next, now time.Time, interval time.Duration) time.Time {
	if next = next.Add(interval); now.Sub(next) > interval {
		return now
	}
	return next
}

// Paced schedule constants: a parked generation is due again resendLags
// report lags after its thread's last frame of it, and each lag sample
// moves an estimate by 1/lagWeight of the gap.
const (
	resendLags = 2
	lagWeight  = 8
)

// streamPlan is a paced flat source's in-order schedule; Run owns it.
//
// Every thread starts at generation 0 and gives each generation its share
// of frames in turn, skipping the generations its report marks full. The
// threads advance in lockstep: no thread starts a generation before every
// thread with a child has started the one before it, so a generation's
// shares go out together, and a thread whose subtree needs fewer re-sends
// does not run ahead and stretch every later generation's delay. A
// hanging thread keeps pace, parking what it passes, so a child that
// clips on later gets those generations as re-sends, not ahead of the
// stream.
//
// A generation that has had its share is parked. It is due again
// resendLags report lags after the thread's last frame of it, and a due
// generation gets one more frame, ahead of a fresh one, then is parked
// again. While fresh generations remain, a thread sends at most one due
// re-send per fresh frame: a thread whose report never closes what it
// parks (a node below it does not probe) has its head due every round
// once it has parked a couple of lags' worth, and would otherwise never
// start another generation, nor, through the lockstep, would any thread. A thread with no fresh generation to send in a round (all have
// had their share, or the lockstep holds the next one back) re-sends its
// oldest parked generation once one lag has passed since its last frame
// of it. With no lag yet it re-sends it at once: without feedback the
// thread sweeps, as an unpaced source does.
//
// A thread measures its report lag from its last frame of a generation to
// the report that first marks it full, over the generations it completed
// with their share alone: a re-sent generation's sample is cut short by
// the re-send itself, and taking it would pull the lag down toward the
// re-send interval. Until its first sample a thread uses the lag over all
// threads' samples.
type streamPlan struct {
	gens, share int
	floor       int   // the lowest fresh generation of a thread with a child
	lag         int64 // the lag over every thread's samples, ns; 0 = none yet
	threads     []streamThread
}

// streamThread is one thread's part of a streamPlan.
type streamThread struct {
	fresh int // the generation getting its share; gens once all have
	sent  int // frames of fresh sent
	// last is, per generation, the unix-nano time of the thread's last
	// frame of it; resent marks a generation re-sent or re-opened since
	// its share, which gives no lag sample.
	last   []int64
	resent []bool
	// parked holds the generations below fresh that rep leaves open, by
	// their last frame, oldest first: a ring with room for every one.
	parked     []int32
	head, size int
	lag        int64  // the thread's own report lag, ns; 0 = none yet
	rep        genSet // the report the plan last took
	// owed marks that the last due re-send took a round a fresh
	// generation could have had; the next such round is the fresh one's.
	owed bool
}

// newStreamPlan returns the schedule of threads threads over gens
// generations, share frames per thread each.
func newStreamPlan(threads, gens, share int) *streamPlan {
	p := &streamPlan{gens: gens, share: share, threads: make([]streamThread, threads)}
	last, resent, parked := make([]int64, threads*gens), make([]bool, threads*gens), make([]int32, threads*gens)
	for th := range p.threads {
		t := &p.threads[th]
		t.last, t.resent, t.parked = last[th*gens:(th+1)*gens], resent[th*gens:(th+1)*gens], parked[th*gens:(th+1)*gens]
	}
	return p
}

// begin starts a round at now with the given routing: it sets the
// lockstep floor from the threads with a child, and brings every hanging
// thread up to it. With no child anywhere nothing moves.
func (p *streamPlan) begin(down []downstream, now int64) {
	floor := -1
	for th, d := range down {
		if f := p.threads[th].fresh; d.child != "" && (floor < 0 || f < floor) {
			floor = f
		}
	}
	if floor < 0 {
		return
	}
	p.floor = floor
	for th, d := range down {
		t := &p.threads[th]
		if d.child != "" || t.fresh >= floor {
			continue
		}
		for ; t.fresh < floor; t.fresh++ {
			if !t.rep.full(t.fresh) {
				t.reopen(t.fresh, now)
			}
		}
		t.sent = 0
	}
}

// next returns the generation thread th sends at now, given its report
// rep, and counts the frame as sent; -1 when nothing is to be sent.
func (p *streamPlan) next(th int, rep genSet, now int64) int {
	t := &p.threads[th]
	if !rep.equal(t.rep) {
		p.take(t, rep, now)
	}
	lag := t.lag
	if lag == 0 {
		lag = p.lag
	}
	var waited int64 // how long the oldest parked generation has waited
	if t.size > 0 {
		waited = now - t.last[t.parked[t.head]]
	}
	if t.fresh < p.gens {
		if g := rep.openIn(t.fresh, p.gens); g != t.fresh {
			t.fresh, t.sent = g, 0 // skip what the report marks full
			if g < 0 {
				t.fresh = p.gens
			}
		}
	}
	fresh := t.fresh < p.gens && t.fresh <= p.floor
	if t.size > 0 && lag > 0 && waited >= resendLags*lag && !(fresh && t.owed) {
		t.owed = fresh
		return t.resend(now)
	}
	if g := t.fresh; fresh {
		t.owed = false
		t.last[g], t.resent[g] = now, false
		if t.sent++; t.sent == p.share {
			t.push(g)
			t.fresh, t.sent = g+1, 0
		}
		return g
	}
	if t.size > 0 && waited >= lag {
		return t.resend(now)
	}
	return -1
}

// resend sends the oldest parked generation again at now and parks it
// behind the others.
func (t *streamThread) resend(now int64) int {
	g := int(t.parked[t.head])
	t.head = (t.head + 1) % len(t.parked)
	t.size--
	t.reopen(g, now)
	return g
}

// reopen parks g behind every parked generation, as re-sent at now.
func (t *streamThread) reopen(g int, now int64) {
	t.push(g)
	t.last[g], t.resent[g] = now, true
}

// push parks g behind every parked generation.
func (t *streamThread) push(g int) {
	t.parked[(t.head+t.size)%len(t.parked)] = int32(g)
	t.size++
}

// take adopts thread t's new report rep, heard by now. A parked
// generation rep marks full leaves the ring, and gives a lag sample if
// its share alone completed it; one below fresh that the last report
// marked full and rep does not (the child changed, or a reset below) is
// parked again, as re-sent now.
func (p *streamPlan) take(t *streamThread, rep genSet, now int64) {
	kept := 0
	for i := 0; i < t.size; i++ {
		g := int(t.parked[(t.head+i)%len(t.parked)])
		if !rep.full(g) {
			t.parked[(t.head+kept)%len(t.parked)] = int32(g)
			kept++
			continue
		}
		if !t.resent[g] {
			sample := max(now-t.last[g], 1)
			t.lag = ewma(t.lag, sample)
			p.lag = ewma(p.lag, sample)
		}
	}
	t.size = kept
	for w := 0; 64*w < t.fresh; w++ {
		for closed := t.rep.word(w) &^ rep.word(w); closed != 0; closed &= closed - 1 {
			if g := 64*w + bits.TrailingZeros64(closed); g < t.fresh {
				t.reopen(g, now)
			}
		}
	}
	t.rep = rep
}

// ewma folds sample into the estimate est, which is 0 before the first.
func ewma(est, sample int64) int64 {
	if est == 0 {
		return sample
	}
	return est + (sample-est)/lagWeight
}
