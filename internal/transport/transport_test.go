package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ncast/internal/obs"
)

func TestMemNetworkRoundTrip(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.Send(ctx, "b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	from, msg, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if from != "a" || string(msg) != "hello" {
		t.Fatalf("got %q from %q", msg, from)
	}
}

func TestMemNetworkUnknownPeer(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	if err := a.Send(context.Background(), "ghost", []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestMemNetworkDuplicateAddress(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	defer n.Close()
	if _, err := n.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint("a"); err == nil {
		t.Fatal("duplicate address accepted")
	}
}

func TestMemNetworkLoss(t *testing.T) {
	t.Parallel()
	n := NewNetwork(WithLoss(1.0), WithSeed(1))
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	if err := a.Send(context.Background(), "b", []byte("x")); err != nil {
		t.Fatal(err) // loss is silent
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := b.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("lossy frame arrived: err = %v", err)
	}
}

func TestMemNetworkPartialLossStatistics(t *testing.T) {
	t.Parallel()
	n := NewNetwork(WithLoss(0.5), WithSeed(2))
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	ctx := context.Background()
	const sent = 400
	for i := 0; i < sent; i++ {
		if err := a.Send(ctx, "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for {
		c, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		_, _, err := b.Recv(c)
		cancel()
		if err != nil {
			break
		}
		got++
	}
	if got < sent/4 || got > 3*sent/4 {
		t.Fatalf("received %d of %d at 50%% loss", got, sent)
	}
}

func TestMemNetworkLatency(t *testing.T) {
	t.Parallel()
	n := NewNetwork(WithLatency(30 * time.Millisecond))
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	ctx := context.Background()
	start := time.Now()
	if err := a.Send(ctx, "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivery after %v, want >= latency", elapsed)
	}
}

func TestMemEndpointClose(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after close: %v", err)
	}
	// Address is reusable after close.
	if _, err := n.Endpoint("a"); err != nil {
		t.Fatalf("address not released: %v", err)
	}
}

func TestNetworkCloseClosesEndpoints(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	a, _ := n.Endpoint("a")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after network close: %v", err)
	}
	if _, err := n.Endpoint("b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Endpoint after close: %v", err)
	}
}

func TestSendToClosedEndpointDropsFrame(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	// Close b's receive side without unregistering (simulates crash
	// before repair): close via the network-held reference.
	n.mu.Lock()
	n.lookup("b").closeLocked()
	n.mu.Unlock()
	if err := a.Send(context.Background(), "b", []byte("x")); err != nil {
		t.Fatalf("send to crashed endpoint: %v", err)
	}
	_ = b
}

func TestCrashThenRejoinSurvivesOldClose(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	defer n.Close()
	old, _ := n.Endpoint("node")
	b, _ := n.Endpoint("b")

	// Crash: the network force-closes and unregisters the endpoint, but
	// the protocol layer still holds the old handle (its Run loop winds
	// down asynchronously and calls Close later).
	if !n.CloseEndpoint("node") {
		t.Fatal("CloseEndpoint found nothing")
	}
	// Rejoin re-registers the same address.
	fresh, err := n.Endpoint("node")
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	// The straggling close of the crashed endpoint must not evict the
	// successor from the fabric.
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(context.Background(), "node", []byte("post-rejoin")); err != nil {
		t.Fatalf("send to rejoined node: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, msg, err := fresh.Recv(ctx); err != nil || string(msg) != "post-rejoin" {
		t.Fatalf("rejoined endpoint unreachable: %q, %v", msg, err)
	}
}

// TestMemRegistryRaces races sends, plain and to a mux sub-address,
// against every write to the fabric's registry: registration, Close,
// CloseEndpoint, re-registration of the same address (plain or mux) and
// Network.Close. Every send delivers, fails with ErrUnknownPeer or
// ErrClosed, or counts a drop; a send issued after a re-registration
// reaches the new endpoint, and the closed one delivers nothing; after
// Network.Close no endpoint delivers anything and none can be added. Run
// under -race, the detector checks the rest.
func TestMemRegistryRaces(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	defer wg.Wait()
	defer n.Close() // a failed round still ends every sender
	const senders, rounds = 3, 120
	newEndpoint := func(addr string) Endpoint {
		ep, err := n.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}

	// Each sender floods "peer" and one of its sub-addresses until the
	// fabric closes, and tallies what Send returned.
	type tally struct {
		ep          Endpoint
		m           *obs.TransportMetrics
		ok, unknown uint64
	}
	tallies := make([]tally, senders)
	for i := range tallies {
		tl := &tallies[i]
		tl.ep = newEndpoint(fmt.Sprintf("s%d", i))
		tl.m = obs.NewTransportMetrics(obs.NewRegistry(), tl.ep.Addr())
		Instrument(tl.ep, tl.m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				to := "peer"
				if k%2 == 1 {
					to += string(MuxSep) + "v"
				}
				err := tl.ep.Send(ctx, to, []byte("noise"))
				switch {
				case err == nil:
					tl.ok++
				case errors.Is(err, ErrUnknownPeer):
					tl.unknown++
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("send to %s: %v", to, err)
					return
				}
			}
		}()
	}

	// drain reads ep until it has delivered want and a frame from every
	// sender, so every round overlaps with all of them; a probe of
	// another round is a frame that reached the wrong endpoint.
	drain := func(ep Endpoint, want string) error {
		heard := map[string]bool{}
		for seen := false; !seen || len(heard) < senders; {
			from, msg, err := ep.Recv(ctx)
			switch {
			case err != nil:
				return err
			case string(msg) == want:
				seen = true
			case strings.HasPrefix(string(msg), "probe"):
				return fmt.Errorf("got %q waiting for %q", msg, want)
			default:
				heard[from] = true
			}
		}
		return nil
	}
	probe := newEndpoint("probe")
	var prev Endpoint
	for r := 0; r < rounds; r++ {
		var peer Endpoint
		to := "peer"
		if r%3 == 2 {
			mux, err := n.MuxEndpoint("peer", 0)
			if err != nil {
				t.Fatal(err)
			}
			peer, to = mux, "peer"+string(MuxSep)+"probe"
		} else {
			peer = newEndpoint("peer")
		}
		if prev != nil {
			if _, _, err := prev.Recv(ctx); !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: closed endpoint Recv = %v, want ErrClosed", r, err)
			}
		}
		want := fmt.Sprintf("probe %d", r)
		got := make(chan error, 1)
		go func() { got <- drain(peer, want) }()
		if err := probe.Send(ctx, to, []byte(want)); err != nil {
			t.Fatalf("round %d: probe: %v", r, err)
		}
		if err := <-got; err != nil {
			t.Fatalf("round %d: re-registered endpoint: %v", r, err)
		}
		if r == rounds-1 {
			prev = peer // left registered for Network.Close
			break
		}
		if r%2 == 0 {
			peer.Close()
		} else if !n.CloseEndpoint("peer") {
			t.Fatalf("round %d: CloseEndpoint found nothing", r)
		}
		prev = peer
	}

	n.Close()
	wg.Wait() // every sender ends on ErrClosed
	for _, ep := range []Endpoint{prev, probe, tallies[0].ep} {
		if _, _, err := ep.Recv(ctx); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s delivers after Network.Close: %v", ep.Addr(), err)
		}
	}
	if _, err := n.Endpoint("late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Endpoint after Network.Close: %v", err)
	}
	for _, tl := range tallies {
		sent, dropped := tl.m.FramesSent.Value(), tl.m.Drops.Value()
		if sent+dropped != tl.ok {
			t.Fatalf("%s: %d sends returned nil, but %d were sent and %d dropped", tl.ep.Addr(), tl.ok, sent, dropped)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	msgs := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 100000)}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %d vs %d bytes", len(got), len(want))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// A forged oversized header must be rejected on read.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("forged oversized header accepted")
	}
}

func TestConnOverPipe(t *testing.T) {
	t.Parallel()
	p1, p2 := net.Pipe()
	c1, c2 := NewConn(p1), NewConn(p2)
	defer c1.Close()
	defer c2.Close()
	done := make(chan error, 1)
	go func() {
		done <- c1.Send(context.Background(), []byte("ping"))
	}()
	msg, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "ping" {
		t.Fatalf("got %q", msg)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnOverTCP(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		msg []byte
		err error
	}
	res := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			res <- result{err: err}
			return
		}
		c := NewConn(conn)
		defer c.Close()
		msg, err := c.Recv()
		if err != nil {
			res <- result{err: err}
			return
		}
		if err := c.Send(context.Background(), append([]byte("echo:"), msg...)); err != nil {
			res <- result{err: err}
			return
		}
		res <- result{msg: msg}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(conn)
	defer c.Close()
	if err := c.Send(context.Background(), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:payload" {
		t.Fatalf("reply = %q", reply)
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
}
