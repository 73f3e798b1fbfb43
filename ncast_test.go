package ncast

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.K, cfg.D = 8, 2
	cfg.GenSize, cfg.PacketSize = 8, 64
	cfg.ComplaintTimeout = 200 * time.Millisecond
	return cfg
}

func testContent(n int) []byte {
	r := rand.New(rand.NewSource(7))
	b := make([]byte, n)
	r.Read(b)
	return b
}

// waitFor polls cond until it holds or the timeout passes, then fails
// the test naming what never happened. The condition, not elapsed time,
// decides the outcome — the timeout only bounds a hung run.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			if cond() {
				return
			}
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default ok", func(*Config) {}, false},
		{"zero k", func(c *Config) { c.K = 0 }, true},
		{"d above k", func(c *Config) { c.D = c.K + 1 }, true},
		{"bad field", func(c *Config) { c.Field = Field(99) }, true},
		{"zero gen", func(c *Config) { c.GenSize = 0 }, true},
		{"bad insert", func(c *Config) { c.Insert = InsertMode(42) }, true},
		{"gf2 ok", func(c *Config) { c.Field = GF2 }, false},
		{"gf65536 ok", func(c *Config) { c.Field = GF65536 }, false},
		{"random insert ok", func(c *Config) { c.Insert = InsertRandom }, false},
		{"data loss without datagram", func(c *Config) { c.DataLoss = 0.05 }, true},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSessionBroadcast(t *testing.T) {
	t.Parallel()
	content := testContent(3000)
	s, err := NewSession(content, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var clients []*Client
	for i := 0; i < 6; i++ {
		c, err := s.AddClient(ctx)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		clients = append(clients, c)
	}
	if s.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	for i, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("client %d: %v (progress %.2f)", i, err, c.Progress())
		}
		got, err := c.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("client %d content mismatch", i)
		}
		if c.Progress() != 1 {
			t.Fatalf("client %d progress = %v", i, c.Progress())
		}
		received, innovative := c.Stats()
		if received == 0 || innovative == 0 {
			t.Fatalf("client %d stats: %d/%d", i, received, innovative)
		}
	}
}

func TestSessionChurnLeaveAndCrash(t *testing.T) {
	t.Parallel()
	content := testContent(2000)
	s, err := NewSession(content, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()

	var clients []*Client
	for i := 0; i < 6; i++ {
		c, err := s.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	// One graceful leave, one crash.
	if err := clients[1].Leave(ctx); err != nil {
		t.Fatal(err)
	}
	clients[2].Crash()
	// The rest still finish and the tracker population converges to 4.
	for _, i := range []int{0, 3, 4, 5} {
		if err := clients[i].Wait(ctx); err != nil {
			t.Fatalf("client %d: %v (progress %.2f)", i, err, clients[i].Progress())
		}
		got, err := clients[i].Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("client %d content mismatch", i)
		}
	}
	waitFor(t, 10*time.Second, "population to converge to 4 after leave+crash repair", func() bool {
		return s.NumNodes() == 4
	})
}

func TestSessionLossyAndLatency(t *testing.T) {
	t.Parallel()
	content := testContent(1500)
	s, err := NewSession(content, testConfig(),
		WithLoss(0.05), WithLatency(time.Millisecond), WithNetworkSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	var clients []*Client
	for i := 0; i < 4; i++ {
		c, err := s.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for i, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		got, err := c.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch over lossy fabric")
		}
	}
}

func TestSessionHeterogeneousDegrees(t *testing.T) {
	t.Parallel()
	content := testContent(1000)
	s, err := NewSession(content, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dsl, err := s.AddClient(ctx, WithDegree(2))
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.AddClient(ctx, WithDegree(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{dsl, t1} {
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		got, err := c.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch")
		}
	}
	if _, err := s.AddClient(ctx, WithDegree(99)); err == nil {
		t.Fatal("degree beyond k accepted")
	}
}

func TestSessionRandomInsertMode(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Insert = InsertRandom
	content := testContent(1200)
	s, err := NewSession(content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var clients []*Client
	for i := 0; i < 5; i++ {
		c, err := s.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		got, err := c.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch in random-insert session")
		}
	}
}

func TestSessionAddAfterClose(t *testing.T) {
	t.Parallel()
	s, err := NewSession(testContent(100), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddClient(context.Background()); err == nil {
		t.Fatal("AddClient after Close succeeded")
	}
	// Double close is fine.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServerAndDialOverTCP(t *testing.T) {
	t.Parallel()
	content := testContent(2000)
	cfg := testConfig()
	cfg.SourceInterval = time.Millisecond
	srv, err := ListenAndServe("127.0.0.1:0", content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	var clients []*RemoteClient
	for i := 0; i < 3; i++ {
		c, err := Dial(ctx, srv.Addr(), "127.0.0.1:0", cfg, WithClientSeed(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	if srv.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", srv.NumNodes())
	}
	for i, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("client %d: %v (progress %.2f)", i, err, c.Progress())
		}
		got, err := c.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch over TCP")
		}
	}
	// Graceful leave via the public API.
	if err := clients[0].Leave(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "census to drop to 2 after the leave", func() bool {
		return srv.NumNodes() == 2
	})
}

// TestSessionLeafCrashSwept exercises the public-API liveness path: a
// crashed client with no children is invisible to the complaint protocol,
// so only the tracker's lease sweep (DefaultConfig enables it) can
// reclaim its row.
func TestSessionLeafCrashSwept(t *testing.T) {
	t.Parallel()
	content := testContent(800)
	cfg := testConfig()
	cfg.LeaseTimeout = 500 * time.Millisecond
	s, err := NewSession(content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()

	var clients []*Client
	for i := 0; i < 4; i++ {
		c, err := s.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	// The latest joiner holds the bottom row: a leaf with no children.
	clients[3].Crash()

	waitFor(t, 10*time.Second, "lease sweep to reclaim the crashed leaf", func() bool {
		return s.NumNodes() == 3
	})
	for i, c := range clients[:3] {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("client %d: %v (progress %.2f)", i, err, c.Progress())
		}
	}
	if h := s.Snapshot().Overlay; h.Nodes != 3 || h.Failed != 0 {
		t.Fatalf("overlay health = %+v, want 3 live rows and no failures", h)
	}
}

// TestClientGoroutineFootprint pins what an in-memory client costs: its
// receive loop, its duty clock and the tracker's outbox worker for it.
// Every periodic duty of a node shares the one clock, so a timer that grew
// its own goroutine again would show here once per client. Not parallel:
// it counts every goroutine in the process.
func TestClientGoroutineFootprint(t *testing.T) {
	const (
		clients   = 8
		perClient = 3
		// The session's own: the tracker's dispatch and receive loops and
		// the source's pump.
		session = 3
		slack   = 2
	)
	before := runtime.NumGoroutine()
	s, err := NewSession(testContent(3000), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < clients; i++ {
		if _, err := s.AddClient(ctx); err != nil {
			t.Fatal(err)
		}
	}
	limit := before + session + clients*perClient + slack
	waitFor(t, 5*time.Second, fmt.Sprintf("at most %d goroutines", limit), func() bool {
		return runtime.NumGoroutine() <= limit
	})
}
