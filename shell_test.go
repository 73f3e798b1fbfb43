package ncast

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ncast/internal/obs"
	"ncast/internal/protocol"
)

// nodeShell is what a caller drives on a client, whichever deployment it
// joined through.
type nodeShell interface {
	ID() uint64
	Progress() float64
	Stats() (received, innovative int)
	Completed() <-chan struct{}
	Wait(ctx context.Context) error
	Content() ([]byte, error)
	CompletedLayers() int
	Layer(l int) ([]byte, error)
	Congest(ctx context.Context) error
	Uncongest(ctx context.Context) error
	Degree() int
	Leave(ctx context.Context) error
}

// trackerShell is what a caller reads from a server, in memory or on
// sockets.
type trackerShell interface {
	NumNodes() int
	CompletedCount() int
	Events() <-chan protocol.TrackerEvent
	Observability() *obs.Registry
	Snapshot() obs.OverlaySnapshot
	ClusterSnapshot() obs.ClusterSnapshot
	TraceSnapshot() obs.TraceSnapshot
	LinkSnapshot() obs.LinkSnapshot
	Close() error
}

// Both deployments offer one surface per role.
var (
	_ nodeShell    = (*Client)(nil)
	_ nodeShell    = (*RemoteClient)(nil)
	_ trackerShell = (*Session)(nil)
	_ trackerShell = (*Server)(nil)
)

// TestLayeredBroadcastOverTCP runs §5 priority layering over sockets: each
// dialed client decodes both layers, and each layer is its slab of the
// content.
func TestLayeredBroadcastOverTCP(t *testing.T) {
	t.Parallel()
	content := testContent(2000)
	cfg := testConfig()
	cfg.SourceInterval = time.Millisecond
	cfg.Seed = 3
	cfg.LayerWeights = []float64{2, 1}
	srv, err := ListenAndServe("127.0.0.1:0", content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	var clients []*RemoteClient
	for i := 0; i < 2; i++ {
		c, err := Dial(ctx, srv.Addr(), "127.0.0.1:0", cfg, WithClientSeed(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	per := (len(content) + 1) / 2
	for i, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("client %d stalled at %.2f: %v", i, c.Progress(), err)
		}
		if got := c.CompletedLayers(); got != 2 {
			t.Fatalf("client %d layers = %d, want 2", i, got)
		}
		for l := 0; l < 2; l++ {
			got, err := c.Layer(l)
			if err != nil {
				t.Fatal(err)
			}
			if want := content[l*per : min((l+1)*per, len(content))]; !bytes.Equal(got, want) {
				t.Fatalf("client %d layer %d: %d bytes differ from the %d-byte slab", i, l, len(got), len(want))
			}
		}
	}
}
