package rlnc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ncast/internal/obs"
)

// ParallelFileDecoder decodes a multi-generation blob with a bounded
// worker pool. Generations are independent linear systems, so their
// Gaussian eliminations parallelise perfectly: packets are sharded to
// workers by generation id (gen % workers), which keeps every
// generation's elimination on a single worker — its codec's mutex is
// never contended — while distinct generations decode concurrently.
//
// The pool is built for throughput rather than per-packet latency:
//
//   - Packets travel in batches. Add accumulates up to batchSize packets
//     per worker before one channel send, so the per-packet cost of the
//     hand-off is a slice append, and a worker wakeup pays for a whole
//     batch of eliminations.
//   - Each generation runs the same engine as the serial decoders
//     (engine.go): contiguous rows, coefficient-first elimination,
//     deferred back-substitution, arenas allocated on first packet.
//
// Add is asynchronous: it enqueues and returns immediately, applying
// backpressure only when the owning worker's queue is full. Progress is
// observed through Complete/Done (cheap atomics); Close flushes pending
// batches, stops the pool, and must be called before Bytes.
type ParallelFileDecoder struct {
	params  Params
	length  int
	gens    []codec
	queues  []chan *[]*Packet
	pending []*[]*Packet
	wg      sync.WaitGroup
	done    atomic.Int64 // completed generations
	closed  bool
	rankSum atomic.Int64
}

// batchSize is how many packets Add accumulates per worker before one
// channel send. Big enough to amortize the hand-off and wakeup, small
// enough that Complete() trails a live feed by at most a few packets
// per worker.
const batchSize = 32

// queueDepth bounds each worker's backlog, in batches. Deep enough to
// ride out a burst, shallow enough that a stalled worker exerts
// backpressure on the producer instead of buffering unbounded packets.
const queueDepth = 8

// batchPool recycles batch slices between Add and the workers so the
// steady-state feed path allocates nothing.
var batchPool = sync.Pool{New: func() any { s := make([]*Packet, 0, batchSize); return &s }}

// NewParallelFileDecoder prepares decoding of a contentLen-byte blob with
// the given worker count; workers <= 0 selects one worker per generation
// up to 4. m optionally instruments the decode (the metrics bundle is
// internally synchronized). Callers feed packets with Add from any
// single goroutine, then Close before reading Bytes.
func NewParallelFileDecoder(params Params, contentLen, workers int, m *obs.CodecMetrics) (*ParallelFileDecoder, error) {
	gens, err := newCodecs(params, contentLen, m)
	if err != nil {
		return nil, err
	}
	n := len(gens)
	if workers <= 0 {
		workers = min(n, 4)
	}
	if workers > n {
		workers = n
	}
	pd := &ParallelFileDecoder{
		params:  params,
		length:  contentLen,
		gens:    gens,
		queues:  make([]chan *[]*Packet, workers),
		pending: make([]*[]*Packet, workers),
	}
	for w := range pd.queues {
		pd.queues[w] = make(chan *[]*Packet, queueDepth)
		pd.wg.Add(1)
		go pd.worker(pd.queues[w])
	}
	return pd, nil
}

// worker drains one shard's queue batch by batch, releasing each packet
// once absorbed. Malformed packets are dropped like lost ones.
func (pd *ParallelFileDecoder) worker(queue <-chan *[]*Packet) {
	defer pd.wg.Done()
	for batch := range queue {
		for _, p := range *batch {
			innovative, closed, _ := pd.gens[p.Gen].add(p)
			p.Release()
			if innovative {
				pd.rankSum.Add(1)
			}
			if closed {
				pd.done.Add(1)
			}
		}
		*batch = (*batch)[:0]
		batchPool.Put(batch)
	}
}

// Add enqueues a coded packet for decoding, taking ownership: the packet
// is released back to the packet pool once absorbed. Packets are staged
// into per-worker batches, so a packet may sit unprocessed until
// batchSize generation-mates follow it or Close flushes; poll Complete
// between feeds rather than after a fixed count. Add blocks only when
// the target worker's queue is full and errors only on out-of-range
// generations or after Close.
func (pd *ParallelFileDecoder) Add(p *Packet) error {
	if int(p.Gen) >= len(pd.gens) {
		return fmt.Errorf("rlnc: packet generation %d out of range [0,%d)", p.Gen, len(pd.gens))
	}
	if pd.closed {
		return fmt.Errorf("rlnc: add after close")
	}
	w := int(p.Gen) % len(pd.queues)
	buf := pd.pending[w]
	if buf == nil {
		buf = batchPool.Get().(*[]*Packet)
		pd.pending[w] = buf
	}
	*buf = append(*buf, p)
	if len(*buf) >= batchSize {
		pd.pending[w] = nil
		pd.queues[w] <- buf
	}
	return nil
}

// Flush pushes any partially-filled batches to the workers without
// closing the pool. Call it when pausing a feed to let Complete()
// converge on everything added so far.
func (pd *ParallelFileDecoder) Flush() {
	if pd.closed {
		return
	}
	for w, buf := range pd.pending {
		if buf != nil && len(*buf) > 0 {
			pd.pending[w] = nil
			pd.queues[w] <- buf
		}
	}
}

// NumGenerations returns the generation count.
func (pd *ParallelFileDecoder) NumGenerations() int { return len(pd.gens) }

// Workers returns the pool size.
func (pd *ParallelFileDecoder) Workers() int { return len(pd.queues) }

// Done returns how many generations have fully decoded so far.
func (pd *ParallelFileDecoder) Done() int { return int(pd.done.Load()) }

// Complete reports whether every generation has been decoded. It may
// trail in-flight and batched Adds; poll it between feeds.
func (pd *ParallelFileDecoder) Complete() bool {
	return int(pd.done.Load()) == len(pd.gens)
}

// Progress returns the fraction of total rank gathered, in [0,1].
func (pd *ParallelFileDecoder) Progress() float64 {
	return float64(pd.rankSum.Load()) / float64(len(pd.gens)*pd.params.GenSize)
}

// Close flushes pending batches, stops the workers, and waits for queued
// packets to drain. It must be called (from the feeding goroutine)
// before Bytes; Add errors afterwards. Close is idempotent.
func (pd *ParallelFileDecoder) Close() {
	if pd.closed {
		return
	}
	pd.Flush()
	pd.closed = true
	for _, q := range pd.queues {
		close(q)
	}
	pd.wg.Wait()
}

// Bytes reassembles the original content. Callers must Close first; it
// errors with ErrIncomplete until every generation decoded.
func (pd *ParallelFileDecoder) Bytes() ([]byte, error) {
	if !pd.closed {
		return nil, fmt.Errorf("rlnc: Bytes before Close")
	}
	if !pd.Complete() {
		return nil, fmt.Errorf("%w: %d of %d generations decoded", ErrIncomplete, pd.Done(), len(pd.gens))
	}
	return assemble(pd.gens, pd.params, pd.length)
}
