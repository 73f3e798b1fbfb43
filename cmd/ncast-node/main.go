// Command ncast-node joins a broadcast over TCP, downloads the content
// through the network-coded overlay (re-serving it to later joiners while
// connected), and writes it to a file.
//
// Usage:
//
//	ncast-node -server 127.0.0.1:9000 -out copy.bin
//	ncast-node -server 127.0.0.1:9000 -out copy.bin -degree 6 -stay 1m
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ncast"
	"ncast/internal/obs"
)

func main() {
	server := flag.String("server", "", "server address (required)")
	obsAddr := flag.String("obs-addr", "", "observability HTTP address serving /metrics and /debug/overlay (empty = off)")
	obsPprof := flag.Bool("obs-pprof", false, "also mount net/http/pprof under /debug/pprof/ on the observability address")
	listen := flag.String("listen", "127.0.0.1:0", "local listen address")
	out := flag.String("out", "", "output file (required)")
	degree := flag.Int("degree", 0, "requested degree (0 = session default)")
	stay := flag.Duration("stay", 10*time.Second, "how long to keep seeding after completion")
	timeout := flag.Duration("timeout", 5*time.Minute, "download timeout")
	seed := flag.Int64("seed", time.Now().UnixNano(), "recoding seed")
	datagram := flag.Bool("datagram", false, "receive coded data frames over UDP on the listen port (must match the server)")
	mtu := flag.Int("mtu", 0, "datagram payload budget in bytes (0 = 1452 default; must match the server)")
	dataLoss := flag.Float64("data-loss", 0, "inject seeded random loss on outbound datagrams (chaos testing; needs -datagram)")
	flag.Parse()

	if *server == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "-server and -out are required")
		os.Exit(2)
	}

	cfg := ncast.DefaultConfig()
	cfg.ComplaintTimeout = time.Second
	cfg.Seed = *seed
	if *datagram {
		ncast.WithDatagramData()(&cfg)
	}
	if *mtu > 0 {
		ncast.WithDatagramMTU(*mtu)(&cfg)
	}
	cfg.DataLoss = *dataLoss
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var opts []ncast.ClientOption
	if *degree > 0 {
		opts = append(opts, ncast.WithDegree(*degree))
	}
	client, err := ncast.Dial(ctx, *server, *listen, cfg, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer client.Close()
	fmt.Printf("joined as node %d\n", client.ID())

	if *obsAddr != "" {
		hs, err := obs.Serve(*obsAddr, client.Observability(), client.Snapshot,
			obs.WithProfiling(*obsPprof))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer hs.Close()
		fmt.Printf("observability on http://%s/metrics and http://%s/debug/overlay\n", hs.Addr(), hs.Addr())
		if *obsPprof {
			fmt.Printf("profiling on http://%s/debug/pprof/\n", hs.Addr())
		}
	}

	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
download:
	for {
		select {
		case <-client.Completed():
			break download
		case <-ticker.C:
			fmt.Printf("progress %.1f%%\n", 100*client.Progress())
		case <-ctx.Done():
			fmt.Fprintf(os.Stderr, "download timed out at %.1f%%\n", 100*client.Progress())
			os.Exit(1)
		}
	}

	content, err := client.Content()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, content, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d bytes to %s; seeding for %v\n", len(content), *out, *stay)
	time.Sleep(*stay)
	if err := client.Leave(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "graceful leave failed: %v\n", err)
	}
}
