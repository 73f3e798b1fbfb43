package ncast

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ncast/internal/obs"
	"ncast/internal/protocol"
	"ncast/internal/transport"
)

// Session is an in-process broadcast: a server and its clients communicate
// over an in-memory message fabric with configurable loss and latency.
// Sessions are the unit of the examples and of churn simulations; the same
// protocol runs over TCP via ListenAndServe / Dial.
type Session struct {
	cfg Config
	net *transport.Network
	// dataNet is the second fabric of a datagram-mode session (see
	// Config.DatagramData): data frames ride it with the session's loss,
	// control stays on the loss-free net. Nil in single-fabric sessions.
	dataNet      *transport.Network
	tracker      *protocol.Tracker
	source       *protocol.Source
	obs          *obs.Registry
	genSink      GenSink
	cancel       context.CancelFunc
	sourceCancel context.CancelFunc
	wg           sync.WaitGroup

	mu      sync.Mutex
	nextID  int
	clients map[string]*Client
	closed  bool
}

// GenEvent is one generation-lifecycle transition at one node: first
// packet seen, a rank quartile crossed, or decode completion (with
// end-to-end delay and coding overhead). Re-exported from the obs layer
// for timeline observers.
type GenEvent = obs.GenEvent

// GenSink consumes lifecycle transitions; it must be safe for concurrent
// calls (distinct generations decode on independent workers).
type GenSink = obs.GenSink

// SessionOption configures the in-memory fabric.
type SessionOption func(*sessionSettings)

type sessionSettings struct {
	loss    float64
	latency time.Duration
	netSeed int64
	genSink GenSink
}

// WithGenEvents subscribes sink to every client's generation-lifecycle
// transitions — the feed behind ncast-sim's -timeline flag.
func WithGenEvents(sink GenSink) SessionOption {
	return func(s *sessionSettings) { s.genSink = sink }
}

// WithLoss drops each in-memory frame with probability p (§2's ergodic
// failures).
func WithLoss(p float64) SessionOption {
	return func(s *sessionSettings) { s.loss = p }
}

// WithLatency adds per-frame delivery delay.
func WithLatency(d time.Duration) SessionOption {
	return func(s *sessionSettings) { s.latency = d }
}

// WithNetworkSeed seeds the fabric's loss coin.
func WithNetworkSeed(seed int64) SessionOption {
	return func(s *sessionSettings) { s.netSeed = seed }
}

// NewSession creates and starts an in-process broadcast of content.
// The returned session runs until Close.
func NewSession(content []byte, cfg Config, opts ...SessionOption) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var settings sessionSettings
	for _, o := range opts {
		o(&settings)
	}
	netOpts := []transport.NetworkOption{transport.WithSeed(settings.netSeed)}
	if settings.latency > 0 {
		netOpts = append(netOpts, transport.WithLatency(settings.latency))
	}
	// In datagram mode the loss knob models the data plane only: control
	// rides a loss-free fabric, like TCP under a dual-plane socket
	// session. Single-fabric sessions keep the historical behavior of
	// loss on everything.
	var dataNet *transport.Network
	if cfg.DatagramData {
		dataOpts := append(append([]transport.NetworkOption(nil), netOpts...),
			transport.WithLoss(settings.loss))
		dataNet = transport.NewNetwork(dataOpts...)
	} else if settings.loss > 0 {
		netOpts = append(netOpts, transport.WithLoss(settings.loss))
	}
	net := transport.NewNetwork(netOpts...)
	closeNets := func() {
		net.Close()
		if dataNet != nil {
			dataNet.Close()
		}
	}

	reg := cfg.registry()
	ep, err := sessionEndpoint(net, dataNet, "server", reg, nil)
	if err != nil {
		closeNets()
		return nil, err
	}
	source, tracker, err := cfg.newServer(ep, content, reg)
	if err != nil {
		closeNets()
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	sourceCtx, sourceCancel := context.WithCancel(ctx)
	s := &Session{
		cfg:          cfg,
		net:          net,
		dataNet:      dataNet,
		tracker:      tracker,
		source:       source,
		obs:          reg,
		genSink:      settings.genSink,
		cancel:       cancel,
		sourceCancel: sourceCancel,
		clients:      make(map[string]*Client),
	}
	s.wg.Add(2)
	go func() { defer s.wg.Done(); _ = tracker.Run(ctx) }()
	go func() { defer s.wg.Done(); _ = source.Run(sourceCtx) }()
	return s, nil
}

// DisconnectSource stops the server's data pump while keeping the tracker
// (membership authority) alive — the §6 file-download scenario: "it may be
// possible eventually for the server to disconnect itself completely from
// the network after the content has been delivered to a small fraction of
// the population". Peers that hold rank keep re-mixing and forwarding, so
// the swarm becomes self-sustaining. Irreversible for the session.
func (s *Session) DisconnectSource() {
	s.sourceCancel()
}

// NumNodes returns the current overlay population.
func (s *Session) NumNodes() int { return s.tracker.NumNodes() }

// CompletedCount returns how many clients reported a full decode.
func (s *Session) CompletedCount() int { return s.tracker.CompletedCount() }

// Events exposes tracker events (join/leave/repair/complete).
func (s *Session) Events() <-chan protocol.TrackerEvent { return s.tracker.Events() }

// Observability returns the session's metrics registry (nil when disabled
// via DisableObs). Pass it to obs.Serve to expose /metrics and
// /debug/overlay over HTTP.
func (s *Session) Observability() *obs.Registry { return s.obs }

// Snapshot captures the session's current health: overlay matrix-M state
// (population, degree distribution, hanging threads), every metric series,
// and the most recent trace events.
func (s *Session) Snapshot() obs.OverlaySnapshot {
	snap := registrySnapshot(s.obs)
	h := s.tracker.Health()
	snap.Overlay = &h
	return snap
}

// ClusterSnapshot returns the server-aggregated fleet telemetry view:
// every node's latest stats report with freshness, per-generation decode
// status with straggler detection, and fleet-wide decode-delay quantiles.
// Nodes report only when Config.StatsInterval is positive.
func (s *Session) ClusterSnapshot() obs.ClusterSnapshot {
	return s.tracker.ClusterSnapshot()
}

// TraceSnapshot returns the assembled dissemination-tracing view (hop
// trees per sampled generation, fleet hop-depth distribution). Empty
// unless Config.TraceRate is positive and traced reports have arrived.
// Pass it to obs.WithTraceSnapshot to serve it at /debug/trace.
func (s *Session) TraceSnapshot() obs.TraceSnapshot {
	return s.tracker.TraceSnapshot()
}

// LinkSnapshot returns the aggregated fleet link matrix: every reported
// (reporter, peer) edge with its loss estimate, RTT/jitter EWMAs,
// innovation rate and goodput, plus the worst-links digest, over any
// transport. Edges appear only when Config.StatsInterval is positive.
// Pass it to obs.WithLinkSnapshot to serve it at /debug/links.
func (s *Session) LinkSnapshot() obs.LinkSnapshot {
	return s.tracker.LinkSnapshot()
}

// ClientOption configures one client.
type ClientOption func(*clientSettings)

type clientSettings struct {
	degree    int
	seed      int64
	genSink   GenSink
	dataLoss  float64
	dataDelay time.Duration
}

// WithClientGenEvents subscribes sink to this client's generation-
// lifecycle transitions (Dial clients have no session-level
// WithGenEvents to inherit from).
func WithClientGenEvents(sink GenSink) ClientOption {
	return func(c *clientSettings) { c.genSink = sink }
}

// WithDegree requests a non-default degree (heterogeneous bandwidth, §5).
func WithDegree(d int) ClientOption {
	return func(c *clientSettings) { c.degree = d }
}

// WithClientSeed seeds the client's recoding randomness.
func WithClientSeed(seed int64) ClientOption {
	return func(c *clientSettings) { c.seed = seed }
}

// WithClientDataLoss drops each of this client's inbound data-plane frames
// with probability p — one-way loss localized to exactly this peer, the
// lossy-peer drill behind the link-telemetry estimators. Datagram-mode
// sessions only; single-fabric sessions ignore it (use WithLoss there).
func WithClientDataLoss(p float64) ClientOption {
	return func(c *clientSettings) { c.dataLoss = p }
}

// WithClientDataDelay adds d to each of this client's inbound data-plane
// frame deliveries, so its keepalive-probe RTT EWMAs reflect a slow link.
// The delay is applied serially on the receive path — keep the inbound
// frame rate well under 1/d or the injection itself becomes the
// bottleneck. Datagram-mode sessions only.
func WithClientDataDelay(d time.Duration) ClientOption {
	return func(c *clientSettings) { c.dataDelay = d }
}

// AddClient joins a new client to the session and waits for the tracker to
// accept it.
func (s *Session) AddClient(ctx context.Context, opts ...ClientOption) (*Client, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.nextID++
	addr := fmt.Sprintf("client-%d", s.nextID)
	settings := clientSettings{seed: int64(s.nextID)}
	s.mu.Unlock()
	for _, o := range opts {
		o(&settings)
	}

	var fault *transport.FaultConfig
	if settings.dataLoss > 0 || settings.dataDelay > 0 {
		fault = &transport.FaultConfig{
			RecvLoss:  settings.dataLoss,
			RecvDelay: settings.dataDelay,
			Seed:      settings.seed,
		}
	}
	ep, err := sessionEndpoint(s.net, s.dataNet, addr, s.obs, fault)
	if err != nil {
		return nil, err
	}
	sink := settings.genSink
	if sink == nil {
		sink = s.genSink
	}
	node := protocol.NewNode(ep, protocol.NodeConfig{
		TrackerAddr:      "server",
		Degree:           settings.degree,
		ComplaintTimeout: s.cfg.ComplaintTimeout,
		Seed:             settings.seed,
		DecodeWorkers:    s.cfg.DecodeWorkers,
		Obs:              obs.NewNodeMetrics(s.obs, addr),
		GenSink:          sink,
	})
	runCtx, cancel := context.WithCancel(context.Background())
	c := &Client{node: node, addr: addr, session: s, cancel: cancel}
	s.wg.Add(1)
	go func() { defer s.wg.Done(); _ = node.Run(runCtx) }()

	select {
	case err := <-node.Joined():
		if err != nil {
			cancel()
			ep.Close()
			return nil, err
		}
	case <-ctx.Done():
		cancel()
		ep.Close()
		return nil, ctx.Err()
	}
	s.mu.Lock()
	s.clients[addr] = c
	s.mu.Unlock()
	return c, nil
}

// Close tears the session down: all clients, the fabric, the server.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	clients := make([]*Client, 0, len(s.clients))
	for _, c := range s.clients {
		clients = append(clients, c)
	}
	s.mu.Unlock()
	for _, c := range clients {
		c.cancel()
	}
	s.cancel()
	s.net.Close()
	if s.dataNet != nil {
		s.dataNet.Close()
	}
	s.wg.Wait()
	return nil
}

// sessionEndpoint registers addr on the session fabric(s): a plain
// instrumented endpoint, or — in datagram mode — a Dual splitting data
// frames onto the lossy data fabric, each plane instrumented as its own
// transport kind. A non-nil fault plan wraps the data plane only, so
// per-client loss/delay injection never touches control traffic (exactly
// like real UDP loss under a TCP control channel).
func sessionEndpoint(ctrlNet, dataNet *transport.Network, addr string, reg *obs.Registry, fault *transport.FaultConfig) (transport.Endpoint, error) {
	ctrl, err := ctrlNet.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	if dataNet == nil {
		transport.Instrument(ctrl, obs.NewTransportMetrics(reg, addr))
		return ctrl, nil
	}
	data, err := dataNet.Endpoint(addr)
	if err != nil {
		ctrl.Close()
		return nil, err
	}
	var dataEP transport.Endpoint = data
	if fault != nil {
		dataEP = transport.NewFaulty(data, *fault)
	}
	transport.Instrument(ctrl, obs.NewTransportMetricsKind(reg, addr, "ctrl"))
	transport.Instrument(dataEP, obs.NewTransportMetricsKind(reg, addr, "data"))
	return transport.NewDual(ctrl, dataEP, protocol.DataPlaneFrame), nil
}

// Client is one overlay node of a session.
type Client struct {
	node    *protocol.Node
	addr    string
	session *Session
	cancel  context.CancelFunc
}

// ID returns the overlay node id assigned by the tracker.
func (c *Client) ID() uint64 { return c.node.ID() }

// Progress returns the decoded-rank fraction in [0,1].
func (c *Client) Progress() float64 { return c.node.Progress() }

// Stats returns (received, innovative) packet counts.
func (c *Client) Stats() (received, innovative int) { return c.node.Stats() }

// Completed closes when the full content has been decoded.
func (c *Client) Completed() <-chan struct{} { return c.node.Completed() }

// Wait blocks until completion or context cancellation.
func (c *Client) Wait(ctx context.Context) error {
	select {
	case <-c.node.Completed():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Content returns the decoded blob once complete.
func (c *Client) Content() ([]byte, error) { return c.node.Content() }

// Leave performs the §3 good-bye protocol and waits for the ack.
func (c *Client) Leave(ctx context.Context) error {
	if err := c.node.Leave(ctx); err != nil {
		return err
	}
	select {
	case <-c.node.Left():
	case <-ctx.Done():
		return ctx.Err()
	}
	c.session.detach(c)
	return nil
}

// Crash kills the client without a good-bye: its endpoint closes, its
// streams go silent, and its children must detect the failure and complain
// — the §3 repair path.
func (c *Client) Crash() {
	c.cancel()
	c.session.net.CloseEndpoint(c.addr)
	if c.session.dataNet != nil {
		c.session.dataNet.CloseEndpoint(c.addr)
	}
	c.session.detach(c)
}

func (s *Session) detach(c *Client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.clients, c.addr)
}

// CompletedLayers returns, for layered sessions, the number of consecutive
// priority layers fully decoded (the playable resolution).
func (c *Client) CompletedLayers() int { return c.node.CompletedLayers() }

// Layer returns the decoded bytes of priority layer l once complete.
func (c *Client) Layer(l int) ([]byte, error) { return c.node.Layer(l) }

// Congest asks for §5 congestion relief: the client drops one thread and
// its parent is joined directly to its child. Asynchronous; observe the
// effect via Degree.
func (c *Client) Congest(ctx context.Context) error { return c.node.Congest(ctx) }

// Uncongest regrows one previously dropped thread (§5 recovery).
func (c *Client) Uncongest(ctx context.Context) error { return c.node.Uncongest(ctx) }

// Degree returns the client's current thread count.
func (c *Client) Degree() int { return c.node.Degree() }
