package protocol

import (
	"context"
	"fmt"
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
	ep      transport.Endpoint
	params  rlnc.Params
	fe      *rlnc.FileEncoder
	le      *rlnc.LayeredEncoder // non-nil in layered mode
	length  int
	rng     *rand.Rand
	mu      sync.Mutex
	childOf []string // thread -> child addr ("" = hanging)
	// full is, per thread, the completion report of the thread's subtree
	// that the thread's child last sent on its probe; Run skips the
	// generations it marks full. SetChild resets it.
	full []genSet
	// emitAt records, per generation, the unix-nano time of the source's
	// first emission — the fixed epoch every receiver measures its
	// end-to-end decode delay against. Stamped into every data frame of
	// that generation and propagated by forwarding nodes.
	emitAt    map[uint32]int64
	traceSeed int64
	// RoundInterval throttles pump rounds; zero relies on transport
	// backpressure alone.
	RoundInterval time.Duration
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
	// sysSent counts, per generation, how many systematic packets have
	// been emitted; only Run touches it.
	sysSent []uint16
	// seq is the next per-thread sequence number; only Run touches it.
	seq []uint32
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
	return &Source{
		ep:        ep,
		params:    params,
		fe:        fe,
		length:    len(content),
		rng:       rand.New(rand.NewSource(seed)),
		traceSeed: seed,
		childOf:   make([]string, k),
		full:      make([]genSet, k),
		seq:       make([]uint32, k),
		emitAt:    make(map[uint32]int64),
	}, nil
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
	return &Source{
		ep:        ep,
		params:    params.Params,
		le:        le,
		length:    len(content),
		rng:       rand.New(rand.NewSource(seed)),
		traceSeed: seed,
		childOf:   make([]string, k),
		full:      make([]genSet, k),
		seq:       make([]uint32, k),
		emitAt:    make(map[uint32]int64),
	}, nil
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

// emitStamp returns the generation's first-emission stamp, recording the
// current time on the first call for that generation.
func (s *Source) emitStamp(gen uint32) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.emitAt[gen]
	if !ok {
		at = time.Now().UnixNano()
		s.emitAt[gen] = at
	}
	return at
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
	if th >= 0 && th < len(s.childOf) {
		s.childOf[th] = addr
		s.full[th] = genSet{}
	}
}

// observeProbe takes the completion report on a probe keepalive for
// thread th that reached the server: the prober's parent on th is the
// source. Only the thread's current child is heard.
func (s *Source) observeProbe(from string, th int, frame []byte) {
	rep, _ := decodeReport(frame) // a malformed tail reports nothing full
	s.mu.Lock()
	defer s.mu.Unlock()
	if th < len(s.childOf) && s.childOf[th] == from {
		s.full[th] = rep
	}
}

// Children returns a copy of the routing table.
func (s *Source) Children() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.childOf...)
}

// Run pumps packets until the context is cancelled. In flat mode,
// generations are staggered across threads so every thread carries every
// generation over time: each thread's cursor steps one generation per
// round, skipping the generations its child reports full, so with no
// report thread th sends generation (round+th) mod G. In layered mode each
// packet's layer is sampled by priority weight. A round in which no thread
// has a child and an open generation sleeps a millisecond. Every frame is
// sent on ctx itself, so with a deadline-free ctx the transport bounds a
// wait on a full queue at transport.QueueWait and a send with room pays
// for no timer.
func (s *Source) Run(ctx context.Context) error {
	gens := 1
	if s.fe != nil {
		gens = s.fe.NumGenerations()
	}
	// Run's own buffers: the routing table and the reports, copied under
	// s.mu once per round, and the per-thread cursors.
	children := make([]string, len(s.childOf))
	full := make([]genSet, len(s.childOf))
	cursor := make([]int, len(s.childOf))
	for th := range cursor {
		cursor[th] = th % gens
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		copy(children, s.childOf)
		copy(full, s.full)
		s.mu.Unlock()
		m := s.Obs
		idle := true
		for th, child := range children {
			g := cursor[th]
			if child == "" {
				cursor[th] = (g + 1) % gens
				continue
			}
			if s.le == nil {
				if g = full[th].nextOpen(g, gens); g < 0 {
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
				if s.Systematic {
					if s.sysSent == nil {
						s.sysSent = make([]uint16, gens)
					}
					if sent := int(s.sysSent[g]); sent < s.params.GenSize {
						p, err = s.fe.Systematic(g, sent)
						s.sysSent[g]++
					}
				}
				if p == nil && err == nil {
					p, err = s.fe.Packet(g, s.rng)
				}
			}
			if err != nil {
				return err
			}
			// Direct children of the source sit at hop depth 1.
			tc := TraceContext{ID: s.traceID(p.Gen), Hop: 1}
			seq := s.seq[th]
			s.seq[th] = (seq + 1) % SeqMod
			// Send does not retain msg, so the frame buffer goes back to
			// its pool as soon as Send returns.
			buf := rlnc.GetFrameBuf()
			*buf = AppendDataSeq(*buf, s.params.Field, th, int32(seq), s.emitStamp(p.Gen), tc, p)
			p.Release()
			err = s.ep.Send(ctx, child, *buf)
			rlnc.PutFrameBuf(buf)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// Child unreachable or clogged: drop and keep pumping
				// other threads; repair or drainage will fix this one.
				continue
			}
			if m != nil {
				m.Packets.Inc()
			}
		}
		if !idle && m != nil {
			m.Rounds.Inc()
		}
		if s.RoundInterval > 0 || idle {
			interval := s.RoundInterval
			if interval == 0 {
				interval = time.Millisecond
			}
			timer := time.NewTimer(interval)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
		}
	}
}
