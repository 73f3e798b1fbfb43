package ncast_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"ncast"
)

// Example broadcasts a small blob to three peers through the curtain
// overlay and verifies every peer decodes it bit-exactly.
func Example() {
	content := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(content)

	cfg := ncast.DefaultConfig()
	cfg.K, cfg.D = 8, 2                 // 8 server streams, degree-2 peers
	cfg.GenSize, cfg.PacketSize = 8, 64 // small generations for the example

	session, err := ncast.NewSession(content, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	peers := make([]*ncast.Client, 0, 3)
	for i := 0; i < 3; i++ {
		peer, err := session.AddClient(ctx)
		if err != nil {
			log.Fatal(err)
		}
		peers = append(peers, peer)
	}
	for _, peer := range peers {
		if err := peer.Wait(ctx); err != nil {
			log.Fatal(err)
		}
		got, err := peer.Content()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("decoded ok:", bytes.Equal(got, content))
	}
	// Output:
	// decoded ok: true
	// decoded ok: true
	// decoded ok: true
}

// ExampleConfig_layered shows §5 priority-layered broadcasting: the blob
// splits into two layers and a receiver reads the base layer on its own.
func ExampleConfig_layered() {
	content := make([]byte, 2048)
	rand.New(rand.NewSource(2)).Read(content)

	cfg := ncast.DefaultConfig()
	cfg.K, cfg.D = 8, 2
	cfg.GenSize, cfg.PacketSize = 8, 64
	cfg.LayerWeights = []float64{3, 1} // base layer gets 3/4 of the stream

	session, err := ncast.NewSession(content, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	peer, err := session.AddClient(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if err := peer.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	base, err := peer.Layer(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("layers:", peer.CompletedLayers())
	fmt.Println("base layer ok:", bytes.Equal(base, content[:1024]))
	// Output:
	// layers: 2
	// base layer ok: true
}

// ExampleWithDatagramData splits a socket session into two planes on one
// port: control stays on TCP while coded frames ride UDP, here with 5 %
// of the datagrams dropped on purpose. Nothing is retransmitted; the
// rateless code absorbs the loss.
func ExampleWithDatagramData() {
	content := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(content)

	cfg := ncast.DefaultConfig()
	cfg.K, cfg.D = 8, 2
	cfg.GenSize, cfg.PacketSize = 8, 64
	cfg.SourceInterval = time.Millisecond
	ncast.WithDatagramData()(&cfg) // UDP data plane, TCP control plane
	cfg.DataLoss = 0.05            // optional chaos: drop 5 % of datagrams

	srv, err := ncast.ListenAndServe("127.0.0.1:0", content, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	peer, err := ncast.Dial(ctx, srv.Addr(), "127.0.0.1:0", cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer peer.Close()
	if err := peer.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	got, err := peer.Content()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("decoded ok:", bytes.Equal(got, content))
	// Output:
	// decoded ok: true
}
