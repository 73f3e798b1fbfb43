package transport

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ncast/internal/obs"
)

// FaultConfig parameterises a Faulty endpoint wrapper. Both probabilities
// are in [0,1] and evaluated independently per frame with the seeded rng,
// so a failure scenario replays deterministically.
type FaultConfig struct {
	// SendLoss drops each outbound frame with this probability.
	SendLoss float64
	// RecvLoss drops each inbound frame with this probability.
	RecvLoss float64
	// RecvDelay adds a fixed extra delay to each inbound frame.
	RecvDelay time.Duration
	// Seed drives the loss coins.
	Seed int64
}

// FaultStats counts the faults a Faulty wrapper has injected.
type FaultStats struct {
	SendDropped uint64
	RecvDropped uint64
}

// Faulty wraps an Endpoint with seeded fault injection: probabilistic
// drops in either direction and a fixed extra delay on receive. It exists
// so lossy and slow links can be scripted against any transport
// (in-memory, UDP or TCP) without rebuilding the fabric. The zero plan
// makes it a transparent pass-through.
type Faulty struct {
	inner Endpoint
	rx    BatchReceiver // Batched(inner)
	cfg   FaultConfig

	mu  sync.Mutex // guards rng (rand.Rand is not goroutine-safe)
	rng *rand.Rand

	sendDropped atomic.Uint64
	recvDropped atomic.Uint64

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
		inner: inner,
		rx:    Batched(inner),
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
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
	}
}

// coin flips the rng under the mutex. A zero probability draws nothing,
// so one direction's plan leaves the other's coin sequence unchanged.
func (f *Faulty) coin(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < p
}

// Send drops the frame on the loss coin, then delegates. A dropped frame
// reports success, exactly like loss on a real link.
func (f *Faulty) Send(ctx context.Context, to string, msg []byte) error {
	if f.coin(f.cfg.SendLoss) {
		f.sendDropped.Add(1)
		f.metrics.Load().Dropped()
		return nil
	}
	return f.inner.Send(ctx, to, msg)
}

// Recv injects inbound faults: coin losses are consumed silently, and the
// next surviving frame is returned. It is the one-frame case of
// RecvBatch; the buffer is the caller's.
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
			if f.coin(f.cfg.RecvLoss) {
				f.recvDropped.Add(1)
				f.metrics.Load().Dropped()
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
