package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"ncast/internal/obs"
)

// TestSendDeadlineNonReadingPeer: a TCP peer that accepts the connection
// but never reads must not be able to block Send past the caller's
// context deadline. Before Conn.Send honored the context, the write
// blocked indefinitely once the kernel socket buffers filled, freezing
// whatever goroutine was sending (notably the tracker's dispatch loop).
func TestSendDeadlineNonReadingPeer(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Accept and hold connections open without ever reading from them.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				<-stop
				conn.Close()
			}()
		}
	}()

	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	// Pump large frames until the socket buffers fill and the write
	// deadline fires. 64 MiB total is far beyond any kernel default.
	msg := make([]byte, 1<<20)
	const deadline = 300 * time.Millisecond
	sawTimeout := false
	for i := 0; i < 64; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		err := ep.Send(ctx, ln.Addr().String(), msg)
		elapsed := time.Since(start)
		cancel()
		if elapsed > deadline+2*time.Second {
			t.Fatalf("send %d took %v, far beyond the %v deadline", i, elapsed, deadline)
		}
		if err != nil {
			sawTimeout = true
			break
		}
	}
	if !sawTimeout {
		t.Fatal("64 MiB to a non-reading peer never hit the write deadline")
	}
}

// timedSend runs send on its own goroutine and returns its duration and
// error. A send still blocked after limit fails the test, which would
// otherwise hang on a Send that never returns.
func timedSend(t *testing.T, limit time.Duration, send func() error) (time.Duration, error) {
	t.Helper()
	type result struct {
		took time.Duration
		err  error
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		err := send()
		done <- result{time.Since(start), err}
	}()
	select {
	case r := <-done:
		return r.took, r.err
	case <-time.After(limit):
		t.Fatalf("send still blocked after %v", limit)
		return 0, nil
	}
}

// fullMemPeer returns an instrumented in-memory endpoint "a" and its peer
// "b", whose 256-frame queue a has filled; b has not read.
func fullMemPeer(t *testing.T) (a, b Endpoint, m *obs.TransportMetrics) {
	t.Helper()
	fabric := NewNetwork()
	t.Cleanup(func() { fabric.Close() })
	a, err := fabric.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if b, err = fabric.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := a.Send(context.Background(), "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m = obs.NewTransportMetrics(obs.NewRegistry(), "a")
	Instrument(a, m)
	return a, b, m
}

// TestSendDeadlineMemQueueWait: with no deadline on the context, a send
// into a full in-memory queue waits QueueWait, then drops the frame,
// counts the drop and returns nil, as a congested datagram link would.
func TestSendDeadlineMemQueueWait(t *testing.T) {
	t.Parallel()
	a, _, m := fullMemPeer(t)
	took, err := timedSend(t, 5*time.Second, func() error {
		return a.Send(context.Background(), "b", []byte("late"))
	})
	if err != nil {
		t.Fatalf("send into a full queue: %v, want nil", err)
	}
	if took < QueueWait || took > QueueWait+time.Second {
		t.Fatalf("send into a full queue took %v, want QueueWait (%v) plus slack", took, QueueWait)
	}
	if drops := m.Drops.Value(); drops != 1 {
		t.Fatalf("%d drops counted, want 1", drops)
	}
}

// TestSendDeadlineMemKeepsCallerDeadline: a context deadline replaces
// QueueWait, so a control sender that can wait longer still gets its
// frame through once the peer starts reading again.
func TestSendDeadlineMemKeepsCallerDeadline(t *testing.T) {
	t.Parallel()
	a, b, m := fullMemPeer(t)
	last := make(chan []byte, 1)
	go func() {
		time.Sleep(150 * time.Millisecond) // the peer resumes reading
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var msg []byte
		for i := 0; i <= 256; i++ {
			_, frame, err := b.Recv(ctx)
			if err != nil {
				break
			}
			msg = frame
		}
		last <- msg
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	took, err := timedSend(t, 5*time.Second, func() error { return a.Send(ctx, "b", []byte("control")) })
	if err != nil {
		t.Fatalf("send within its deadline: %v", err)
	}
	if took <= QueueWait {
		t.Fatalf("send returned after %v, before the reader resumed", took)
	}
	if got := <-last; string(got) != "control" {
		t.Fatalf("last frame read %q, want the control frame", got)
	}
	if drops := m.Drops.Value(); drops != 0 {
		t.Fatalf("%d drops counted, want 0", drops)
	}
}

// TestSendDeadlineTCPQueueWait: with no deadline on the context, a TCP
// send to a peer that accepts but never reads fails within QueueWait of
// the kernel buffers filling, instead of blocking forever.
func TestSendDeadlineTCPQueueWait(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				<-stop
				conn.Close()
			}()
		}
	}()
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	msg := make([]byte, 1<<20)
	for i := 0; i < 64; i++ {
		took, err := timedSend(t, 10*time.Second, func() error {
			return ep.Send(context.Background(), ln.Addr().String(), msg)
		})
		if took > QueueWait+time.Second {
			t.Fatalf("send %d took %v, want at most QueueWait (%v) plus slack", i, took, QueueWait)
		}
		if err != nil {
			return
		}
	}
	t.Fatal("64 MiB to a non-reading peer never hit the write deadline")
}
