package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"ncast/internal/obs"
)

// faultyPair builds two in-memory endpoints with a Faulty wrapper on a.
func faultyPair(t *testing.T, cfg FaultConfig) (*Faulty, Endpoint, *Network) {
	t.Helper()
	net := NewNetwork()
	rawA, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { net.Close() })
	return NewFaulty(rawA, cfg), b, net
}

func TestFaultyPassThrough(t *testing.T) {
	t.Parallel()
	a, b, _ := faultyPair(t, FaultConfig{})
	ctx := context.Background()
	if err := a.Send(ctx, "b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	from, msg, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if from != "a" || string(msg) != "hi" {
		t.Fatalf("got %q from %q", msg, from)
	}
	if a.Addr() != "a" {
		t.Fatalf("Addr = %q", a.Addr())
	}
}

func TestFaultySendLossIsSeededAndCounted(t *testing.T) {
	t.Parallel()
	a, b, _ := faultyPair(t, FaultConfig{SendLoss: 0.5, Seed: 42})
	ctx := context.Background()
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(ctx, "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	dropped := a.Stats().SendDropped
	if dropped == 0 || dropped == n {
		t.Fatalf("dropped = %d of %d, want strictly between", dropped, n)
	}
	// Every surviving frame must be receivable.
	got := 0
	for i := uint64(0); i < n-dropped; i++ {
		rctx, cancel := context.WithTimeout(ctx, time.Second)
		_, _, err := b.Recv(rctx)
		cancel()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		got++
	}
	if uint64(got) != n-dropped {
		t.Fatalf("received %d, want %d", got, n-dropped)
	}
}

func TestFaultyRecvLossDropsInbound(t *testing.T) {
	t.Parallel()
	a, b, _ := faultyPair(t, FaultConfig{RecvLoss: 1, Seed: 3})
	ctx := context.Background()
	if err := b.Send(ctx, "a", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	rctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, _, err := a.Recv(rctx); err == nil {
		t.Fatal("frame survived RecvLoss = 1")
	}
	if a.Stats().RecvDropped != 1 {
		t.Fatalf("RecvDropped = %d", a.Stats().RecvDropped)
	}
}

func TestFaultyInjectedDropsReachMetrics(t *testing.T) {
	t.Parallel()
	a, b, _ := faultyPair(t, FaultConfig{SendLoss: 1, RecvLoss: 1, Seed: 5})
	reg := obs.NewRegistry()
	m := obs.NewTransportMetricsKind(reg, "a", "mem")
	Instrument(a, m)
	ctx := context.Background()

	// A coin-dropped send never reaches the inner endpoint, so only the
	// wrapper can record it.
	if err := a.Send(ctx, "b", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if m.Drops.Value() != 1 {
		t.Fatalf("Drops after SendLoss = %d, want 1", m.Drops.Value())
	}

	// An inbound coin drop is the wrapper's alone to record as well.
	if err := b.Send(ctx, "a", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	rctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, _, err := a.Recv(rctx); err == nil {
		t.Fatal("frame survived RecvLoss = 1")
	}
	if m.Drops.Value() != 2 {
		t.Fatalf("Drops after RecvLoss = %d, want 2", m.Drops.Value())
	}
	// The real-traffic counters stayed on the inner endpoint untouched by
	// injection (nothing was actually delivered).
	if m.FramesSent.Value() != 0 {
		t.Fatalf("FramesSent = %d for fully dropped traffic", m.FramesSent.Value())
	}
}

func TestFaultyRecvDelayCancelCountsLostFrame(t *testing.T) {
	t.Parallel()
	a, b, _ := faultyPair(t, FaultConfig{RecvDelay: time.Second})
	reg := obs.NewRegistry()
	m := obs.NewTransportMetricsKind(reg, "a", "mem")
	Instrument(a, m)
	ctx := context.Background()
	if err := b.Send(ctx, "a", []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	// The frame is consumed from the inner endpoint, then the context
	// dies during the injected delay: the frame is gone for good and must
	// be accounted as a drop, not silently vanish.
	rctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, _, err := a.Recv(rctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Recv = %v, want deadline exceeded", err)
	}
	if got := a.Stats().RecvDropped; got != 1 {
		t.Fatalf("RecvDropped = %d, want 1", got)
	}
	if m.Drops.Value() != 1 {
		t.Fatalf("metrics Drops = %d, want 1", m.Drops.Value())
	}
	// The link still works once the consumer stops cancelling early.
	if err := b.Send(ctx, "a", []byte("retry")); err != nil {
		t.Fatal(err)
	}
	rctx2, cancel2 := context.WithTimeout(ctx, 5*time.Second)
	defer cancel2()
	if _, msg, err := a.Recv(rctx2); err != nil || string(msg) != "retry" {
		t.Fatalf("post-cancel recv: %q, %v", msg, err)
	}
}
