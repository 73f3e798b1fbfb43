package ncast

import (
	"context"
	"sync"

	"ncast/internal/obs"
	"ncast/internal/protocol"
	"ncast/internal/transport"
)

// Server is a socket-facing broadcast server: the tracker (overlay
// authority) and the data source bound to one listening address. With
// Config.DatagramData the address serves two planes — control over TCP,
// coded data over UDP on the same port.
type Server struct {
	ep      transport.Endpoint
	tracker *protocol.Tracker
	source  *protocol.Source
	obs     *obs.Registry
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// listenEndpoint builds the session transport bound to addr: plain TCP,
// or — with cfg.DatagramData — a dual-plane endpoint whose control half
// is TCP and whose data half is UDP on the same port, each instrumented
// as its own transport kind so scrapes can tell the planes apart.
// metricsName labels the endpoint in obs; empty means the bound address.
func listenEndpoint(addr, metricsName string, cfg Config, reg *obs.Registry) (transport.Endpoint, error) {
	if !cfg.DatagramData {
		ep, err := transport.ListenTCP(addr)
		if err != nil {
			return nil, err
		}
		if metricsName == "" {
			metricsName = ep.Addr()
		}
		// Single-plane sessions keep the historical label set (endpoint
		// only); the transport kind label exists to tell two planes apart.
		transport.Instrument(ep, obs.NewTransportMetrics(reg, metricsName))
		return ep, nil
	}
	tcp, udp, err := transport.ListenSamePort(addr, transport.UDPConfig{MTU: cfg.mtu()})
	if err != nil {
		return nil, err
	}
	if metricsName == "" {
		metricsName = tcp.Addr()
	}
	// The chaos wrapper goes under the instrumentation so injected drops
	// land on the same per-kind bundle real UDP losses do.
	var data transport.Endpoint = udp
	if cfg.DataLoss > 0 {
		data = transport.NewFaulty(udp, transport.FaultConfig{SendLoss: cfg.DataLoss, Seed: cfg.Seed})
	}
	transport.Instrument(tcp, obs.NewTransportMetricsKind(reg, metricsName, "tcp"))
	transport.Instrument(data, obs.NewTransportMetricsKind(reg, metricsName, "udp"))
	return transport.NewDual(tcp, data, protocol.DataPlaneFrame), nil
}

// ListenAndServe starts a broadcast server for content on addr
// (e.g. "127.0.0.1:0"; use Addr to learn the bound address).
func ListenAndServe(addr string, content []byte, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.registry()
	ep, err := listenEndpoint(addr, "server", cfg, reg)
	if err != nil {
		return nil, err
	}
	source, tracker, err := cfg.newServer(ep, content, reg)
	if err != nil {
		ep.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{ep: ep, tracker: tracker, source: source, obs: reg, cancel: cancel}
	s.wg.Add(2)
	go func() { defer s.wg.Done(); _ = tracker.Run(ctx) }()
	go func() { defer s.wg.Done(); _ = source.Run(ctx) }()
	return s, nil
}

// Addr returns the server's listening address.
func (s *Server) Addr() string { return s.ep.Addr() }

// NumNodes returns the overlay population.
func (s *Server) NumNodes() int { return s.tracker.NumNodes() }

// CompletedCount returns how many nodes reported a full decode.
func (s *Server) CompletedCount() int { return s.tracker.CompletedCount() }

// Events exposes tracker events.
func (s *Server) Events() <-chan protocol.TrackerEvent { return s.tracker.Events() }

// Observability returns the server's metrics registry (nil when disabled).
func (s *Server) Observability() *obs.Registry { return s.obs }

// Snapshot captures the server's current overlay health, metrics, and
// recent trace events.
func (s *Server) Snapshot() obs.OverlaySnapshot {
	snap := registrySnapshot(s.obs)
	h := s.tracker.Health()
	snap.Overlay = &h
	return snap
}

// ClusterSnapshot returns the server-aggregated fleet telemetry view (see
// Session.ClusterSnapshot). Pass it to obs.WithClusterSnapshot to serve it
// at /debug/cluster.
func (s *Server) ClusterSnapshot() obs.ClusterSnapshot {
	return s.tracker.ClusterSnapshot()
}

// TraceSnapshot returns the assembled dissemination-tracing view (see
// Session.TraceSnapshot). Pass it to obs.WithTraceSnapshot to serve it at
// /debug/trace.
func (s *Server) TraceSnapshot() obs.TraceSnapshot {
	return s.tracker.TraceSnapshot()
}

// LinkSnapshot returns the aggregated fleet link matrix (see
// Session.LinkSnapshot). Pass it to obs.WithLinkSnapshot to serve it at
// /debug/links.
func (s *Server) LinkSnapshot() obs.LinkSnapshot {
	return s.tracker.LinkSnapshot()
}

// Close stops the server.
func (s *Server) Close() error {
	s.cancel()
	err := s.ep.Close()
	s.wg.Wait()
	return err
}

// RemoteClient is a socket-connected overlay node.
type RemoteClient struct {
	node   *protocol.Node
	ep     transport.Endpoint
	obs    *obs.Registry
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Dial joins the broadcast at serverAddr, listening on listenAddr
// (typically "127.0.0.1:0" or ":0"). cfg supplies the complaint timeout;
// opts may request a degree.
func Dial(ctx context.Context, serverAddr, listenAddr string, cfg Config, opts ...ClientOption) (*RemoteClient, error) {
	settings := clientSettings{seed: cfg.Seed}
	for _, o := range opts {
		o(&settings)
	}
	reg := cfg.registry()
	ep, err := listenEndpoint(listenAddr, "", cfg, reg)
	if err != nil {
		return nil, err
	}
	node := protocol.NewNode(ep, protocol.NodeConfig{
		TrackerAddr:      serverAddr,
		Degree:           settings.degree,
		ComplaintTimeout: cfg.ComplaintTimeout,
		Seed:             settings.seed,
		DecodeWorkers:    cfg.DecodeWorkers,
		Obs:              obs.NewNodeMetrics(reg, ep.Addr()),
		GenSink:          settings.genSink,
	})
	runCtx, cancel := context.WithCancel(context.Background())
	c := &RemoteClient{node: node, ep: ep, obs: reg, cancel: cancel}
	c.wg.Add(1)
	go func() { defer c.wg.Done(); _ = node.Run(runCtx) }()
	select {
	case err := <-node.Joined():
		if err != nil {
			c.Close()
			return nil, err
		}
	case <-ctx.Done():
		c.Close()
		return nil, ctx.Err()
	}
	return c, nil
}

// ID returns the node's overlay id.
func (c *RemoteClient) ID() uint64 { return c.node.ID() }

// Progress returns the decoded-rank fraction in [0,1].
func (c *RemoteClient) Progress() float64 { return c.node.Progress() }

// Completed closes when the content is fully decoded.
func (c *RemoteClient) Completed() <-chan struct{} { return c.node.Completed() }

// Wait blocks until completion or context cancellation.
func (c *RemoteClient) Wait(ctx context.Context) error {
	select {
	case <-c.node.Completed():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Content returns the decoded blob once complete.
func (c *RemoteClient) Content() ([]byte, error) { return c.node.Content() }

// Observability returns the client's metrics registry (nil when disabled).
func (c *RemoteClient) Observability() *obs.Registry { return c.obs }

// Snapshot captures the client's download health, metrics, and recent
// trace events.
func (c *RemoteClient) Snapshot() obs.OverlaySnapshot {
	snap := registrySnapshot(c.obs)
	h := c.node.Health()
	snap.Node = &h
	return snap
}

// Leave performs the good-bye protocol, then closes the client.
func (c *RemoteClient) Leave(ctx context.Context) error {
	if err := c.node.Leave(ctx); err != nil {
		return err
	}
	select {
	case <-c.node.Left():
	case <-ctx.Done():
		return ctx.Err()
	}
	return c.Close()
}

// Close tears the client down without a good-bye (a crash, from the
// overlay's perspective — the repair protocol will splice around it).
func (c *RemoteClient) Close() error {
	c.cancel()
	err := c.ep.Close()
	c.wg.Wait()
	return err
}

// Congest asks for §5 congestion relief (drop one thread).
func (c *RemoteClient) Congest(ctx context.Context) error { return c.node.Congest(ctx) }

// Uncongest regrows one previously dropped thread.
func (c *RemoteClient) Uncongest(ctx context.Context) error { return c.node.Uncongest(ctx) }

// Degree returns the client's current thread count.
func (c *RemoteClient) Degree() int { return c.node.Degree() }

// CompletedLayers returns the playable priority-layer count (layered
// sessions; flat sessions report 1 when complete).
func (c *RemoteClient) CompletedLayers() int { return c.node.CompletedLayers() }
