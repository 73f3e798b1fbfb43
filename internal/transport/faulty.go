package transport

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ncast/internal/obs"
)

// FaultConfig parameterises a Faulty endpoint wrapper. All probabilities
// are in [0,1] and evaluated independently per frame with the seeded rng,
// so a failure scenario replays deterministically.
type FaultConfig struct {
	// SendLoss drops each outbound frame with this probability.
	SendLoss float64
	// RecvLoss drops each inbound frame with this probability.
	RecvLoss float64
	// DupProb re-sends an outbound frame once with this probability
	// (duplicate delivery, as after a spurious retransmit).
	DupProb float64
	// SendDelay and RecvDelay add a fixed extra delay per direction.
	SendDelay time.Duration
	RecvDelay time.Duration
	// Seed drives the loss/duplication coins.
	Seed int64
}

// FaultStats counts the faults a Faulty wrapper has injected.
type FaultStats struct {
	SendDropped uint64
	RecvDropped uint64
	Duplicated  uint64
	Partitioned uint64
}

// Faulty wraps an Endpoint with seeded fault injection: probabilistic
// drops and duplication, fixed extra delays, and directional partitions.
// It exists so churn and crash scenarios can be scripted against any
// transport (in-memory or TCP) without rebuilding the fabric. The zero
// probabilities make it a transparent pass-through.
type Faulty struct {
	inner Endpoint
	rx    BatchReceiver // Batched(inner)

	mu          sync.Mutex
	rng         *rand.Rand
	cfg         FaultConfig
	blockedSend map[string]bool
	blockedRecv map[string]bool

	sendDropped atomic.Uint64
	recvDropped atomic.Uint64
	duplicated  atomic.Uint64
	partitioned atomic.Uint64

	// metrics mirrors the bundle forwarded to the inner endpoint so the
	// faults injected HERE (which the inner endpoint never sees) still
	// surface as ncast_transport_*_dropped.
	metrics atomic.Pointer[obs.TransportMetrics]
}

var (
	_ Endpoint       = (*Faulty)(nil)
	_ BatchReceiver  = (*Faulty)(nil)
	_ Instrumentable = (*Faulty)(nil)
)

// NewFaulty wraps inner with the given fault plan.
func NewFaulty(inner Endpoint, cfg FaultConfig) *Faulty {
	return &Faulty{
		inner:       inner,
		rx:          Batched(inner),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		cfg:         cfg,
		blockedSend: make(map[string]bool),
		blockedRecv: make(map[string]bool),
	}
}

// Addr returns the wrapped endpoint's address.
func (f *Faulty) Addr() string { return f.inner.Addr() }

// SetMetrics attaches the bundle locally (for injected faults) and
// forwards it to the wrapped endpoint (for real traffic). Without the
// local copy, injected drops never reach obs: the inner endpoint is never
// called for a dropped frame, so nothing would increment the drop counter.
func (f *Faulty) SetMetrics(m *obs.TransportMetrics) {
	f.metrics.Store(m)
	Instrument(f.inner, m)
}

// Close closes the wrapped endpoint.
func (f *Faulty) Close() error { return f.inner.Close() }

// Stats returns the fault counters so tests can assert injection really
// happened (a fault plan that never fires proves nothing).
func (f *Faulty) Stats() FaultStats {
	return FaultStats{
		SendDropped: f.sendDropped.Load(),
		RecvDropped: f.recvDropped.Load(),
		Duplicated:  f.duplicated.Load(),
		Partitioned: f.partitioned.Load(),
	}
}

// Partition blocks both directions to/from the named peers.
func (f *Faulty) Partition(peers ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range peers {
		f.blockedSend[p] = true
		f.blockedRecv[p] = true
	}
}

// PartitionOutbound blocks only frames sent to the named peers (an
// asymmetric failure: we hear them, they do not hear us).
func (f *Faulty) PartitionOutbound(peers ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range peers {
		f.blockedSend[p] = true
	}
}

// PartitionInbound blocks only frames received from the named peers.
func (f *Faulty) PartitionInbound(peers ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range peers {
		f.blockedRecv[p] = true
	}
}

// Heal unblocks both directions for the named peers; with no arguments it
// heals every partition.
func (f *Faulty) Heal(peers ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(peers) == 0 {
		f.blockedSend = make(map[string]bool)
		f.blockedRecv = make(map[string]bool)
		return
	}
	for _, p := range peers {
		delete(f.blockedSend, p)
		delete(f.blockedRecv, p)
	}
}

// coin flips the rng under the mutex (rand.Rand is not goroutine-safe).
func (f *Faulty) coin(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < p
}

// Send injects outbound faults, then delegates. Dropped and partitioned
// frames report success, exactly like loss on a real link.
func (f *Faulty) Send(ctx context.Context, to string, msg []byte) error {
	f.mu.Lock()
	blocked := f.blockedSend[to]
	f.mu.Unlock()
	if blocked {
		f.partitioned.Add(1)
		f.metrics.Load().Dropped()
		return nil
	}
	if f.coin(f.cfg.SendLoss) {
		f.sendDropped.Add(1)
		f.metrics.Load().Dropped()
		return nil
	}
	if f.cfg.SendDelay > 0 {
		if err := sleepCtx(ctx, f.cfg.SendDelay); err != nil {
			return err
		}
	}
	if err := f.inner.Send(ctx, to, msg); err != nil {
		return err
	}
	if f.coin(f.cfg.DupProb) {
		f.duplicated.Add(1)
		return f.inner.Send(ctx, to, msg)
	}
	return nil
}

// Recv injects inbound faults: frames from partitioned peers and coin
// losses are consumed silently, and the next surviving frame is returned.
// It is the one-frame case of RecvBatch; the buffer is the caller's.
func (f *Faulty) Recv(ctx context.Context) (string, []byte, error) {
	var fs [1]Frame
	if _, err := f.RecvBatch(ctx, fs[:]); err != nil {
		return "", nil, err
	}
	return fs[0].From, fs[0].Msg, nil
}

// RecvBatch implements BatchReceiver: it reads a batch from the wrapped
// endpoint and filters it in place, releasing the frames it drops, until
// a frame survives. With a RecvDelay it hands over one frame per call, so
// the delay stays per frame.
func (f *Faulty) RecvBatch(ctx context.Context, frames []Frame) (int, error) {
	if f.cfg.RecvDelay > 0 && len(frames) > 1 {
		frames = frames[:1]
	}
	for {
		n, err := f.rx.RecvBatch(ctx, frames)
		if err != nil {
			return 0, err
		}
		kept := 0
		for i := 0; i < n; i++ {
			if f.lost(frames[i].From) {
				frames[i].Release()
				continue
			}
			if kept != i {
				frames[kept], frames[i] = frames[i], Frame{}
			}
			kept++
		}
		if kept == 0 {
			continue
		}
		if f.cfg.RecvDelay > 0 {
			if err := sleepCtx(ctx, f.cfg.RecvDelay); err != nil {
				// The frame was consumed from the inner endpoint but never
				// delivered to the caller: lost in flight on a dying link.
				frames[0].Release()
				f.recvDropped.Add(1)
				f.metrics.Load().Dropped()
				return 0, err
			}
		}
		return kept, nil
	}
}

// lost decides an inbound frame's fate: dropped when its sender is
// partitioned or the loss coin says so, with the drop counted.
func (f *Faulty) lost(from string) bool {
	f.mu.Lock()
	blocked := f.blockedRecv[from]
	f.mu.Unlock()
	if blocked {
		f.partitioned.Add(1)
		f.metrics.Load().Dropped()
		return true
	}
	if f.coin(f.cfg.RecvLoss) {
		f.recvDropped.Add(1)
		f.metrics.Load().Dropped()
		return true
	}
	return false
}

// sleepCtx waits d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
