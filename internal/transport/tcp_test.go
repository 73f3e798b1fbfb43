package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// prependSender builds a sender-prefixed frame, the inverse of
// splitSender.
func prependSender(from string, msg []byte) []byte {
	return appendSender(nil, from, msg)
}

func TestTCPEndpointRoundTrip(t *testing.T) {
	t.Parallel()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx := context.Background()
	if err := a.Send(ctx, b.Addr(), []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	from, msg, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if from != a.Addr() || string(msg) != "over tcp" {
		t.Fatalf("got %q from %q", msg, from)
	}
	// Reply using the learned sender address.
	if err := b.Send(ctx, from, []byte("ack")); err != nil {
		t.Fatal(err)
	}
	_, msg, err = a.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "ack" {
		t.Fatalf("reply = %q", msg)
	}
}

func TestTCPEndpointConnReuseConcurrent(t *testing.T) {
	t.Parallel()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx := context.Background()
	const n = 100
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := a.Send(ctx, b.Addr(), []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	seen := make(map[byte]bool, n)
	for i := 0; i < n; i++ {
		_, msg, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen[msg[0]] = true
	}
	if len(seen) != n {
		t.Fatalf("received %d distinct frames, want %d", len(seen), n)
	}
}

func TestTCPEndpointSendAfterClose(t *testing.T) {
	t.Parallel()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "127.0.0.1:1", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := a.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after close: %v", err)
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSenderHostileLength(t *testing.T) {
	t.Parallel()
	// A length prefix near MaxUint32 must be rejected, not sliced: with a
	// signed int conversion the value goes negative on 32-bit platforms
	// and bypasses the bounds check.
	hostile := [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF, 'x', 'y'},
		{0x80, 0x00, 0x00, 0x00, 'p'},
		{0x00, 0x00, 0x00, 0x05, 'a'}, // length > remaining
		{0x01},                        // short frame
		{},
	}
	for _, frame := range hostile {
		if _, _, err := splitSender(frame); err == nil {
			t.Fatalf("hostile frame %x accepted", frame)
		}
	}
	// Round trip through the real encoder still works, including an empty
	// payload (len == remaining exactly).
	from, payload, err := splitSender(prependSender("1.2.3.4:5", nil))
	if err != nil || from != "1.2.3.4:5" || len(payload) != 0 {
		t.Fatalf("round trip: %q, %q, %v", from, payload, err)
	}
}

func FuzzSplitSender(f *testing.F) {
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Add(prependSender("127.0.0.1:9", []byte("payload")))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		from, payload, err := splitSender(frame) // must never panic
		if err != nil {
			return
		}
		// Whatever parses must re-encode to the identical frame.
		redone := prependSender(from, payload)
		if string(redone) != string(frame) {
			t.Fatalf("not canonical: %x -> (%q,%x) -> %x", frame, from, payload, redone)
		}
	})
}

func TestTCPEndpointRedialAfterSendErrorConcurrent(t *testing.T) {
	t.Parallel()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A hostile peer that accepts and immediately slams each connection:
	// writes eventually fail, which must invalidate the cached conn so
	// concurrent senders trigger a redial instead of reusing a corpse.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conn.Close()
		}
	}()

	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for accepts.Load() < 3 && time.Now().Before(deadline) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Errors are expected (the peer kills every conn); the
				// invariant under test is redial, not delivery.
				sctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
				defer cancel()
				_ = a.Send(sctx, ln.Addr().String(), []byte("probe"))
			}()
		}
		wg.Wait()
		time.Sleep(10 * time.Millisecond)
	}
	if got := accepts.Load(); got < 3 {
		t.Fatalf("peer saw %d connections; send errors did not trigger redial", got)
	}
	// The endpoint survives the abuse and still serves healthy peers.
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Send(ctx, b.Addr(), []byte("alive")); err != nil {
		t.Fatal(err)
	}
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, msg, err := b.Recv(rctx); err != nil || string(msg) != "alive" {
		t.Fatalf("healthy peer after redials: %q, %v", msg, err)
	}
}

func TestTCPEndpointDialFailure(t *testing.T) {
	t.Parallel()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := a.Send(ctx, "127.0.0.1:1", []byte("x")); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}
