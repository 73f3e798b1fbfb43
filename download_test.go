package ncast

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestSwarmSurvivesSourceDeparture exercises the §6 download scenario:
// once the content has reached part of the population, the server's data
// pump disconnects; the swarm — peers re-mixing and forwarding among
// themselves, with the tracker still brokering joins — must deliver the
// content to everyone who arrives afterwards.
func TestSwarmSurvivesSourceDeparture(t *testing.T) {
	t.Parallel()
	content := testContent(1500)
	cfg := testConfig()
	s, err := NewSession(content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Seed generation: 4 peers download directly from the source.
	var seeds []*Client
	for i := 0; i < 4; i++ {
		c, err := s.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, c)
	}
	for _, c := range seeds {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("seed stalled: %v", err)
		}
	}

	// The server disconnects its data plane.
	s.DisconnectSource()

	// Late arrivals must complete purely from the swarm.
	var late []*Client
	for i := 0; i < 3; i++ {
		c, err := s.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		late = append(late, c)
	}
	for i, c := range late {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("late peer %d stalled at %.2f with source disconnected: %v",
				i, c.Progress(), err)
		}
		got, err := c.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("late peer %d content mismatch", i)
		}
	}
}

// TestLayeredBroadcastEndToEnd drives §5 priority layering through the full
// stack: a layered source, recoding relays, and layer-aware clients.
func TestLayeredBroadcastEndToEnd(t *testing.T) {
	t.Parallel()
	content := testContent(2048)
	cfg := testConfig()
	cfg.LayerWeights = []float64{4, 2, 1} // base layer gets 4/7 of the stream
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
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
			t.Fatalf("client %d stalled at %.2f: %v", i, c.Progress(), err)
		}
		got, err := c.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("client %d layered content mismatch", i)
		}
		if c.CompletedLayers() != 3 {
			t.Fatalf("client %d layers = %d, want 3", i, c.CompletedLayers())
		}
		// Per-layer extraction matches the slabs.
		per := (len(content) + 2) / 3
		for l := 0; l < 3; l++ {
			end := (l + 1) * per
			if end > len(content) {
				end = len(content)
			}
			lb, err := c.Layer(l)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lb, content[l*per:end]) {
				t.Fatalf("client %d layer %d mismatch", i, l)
			}
		}
	}
	// Layer access on a flat session errors.
	flat, err := NewSession(content, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	fc, err := flat.AddClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Layer(0); err == nil {
		t.Fatal("Layer on flat session succeeded")
	}
}
