package ncast

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ncast/internal/obs"
	"ncast/internal/transport"
)

// Session is an in-process broadcast: a server and its clients communicate
// over an in-memory message fabric with configurable loss and latency.
// Sessions are the unit of the examples and of churn simulations; the same
// protocol runs over TCP via ListenAndServe / Dial.
type Session struct {
	// serverCore's wg also covers the session's client nodes.
	serverCore
	cfg Config
	net *transport.Network
	// dataNet is the second fabric of a datagram-mode session (see
	// Config.DatagramData): data frames ride it with the session's loss,
	// control stays on the loss-free net. Nil in single-fabric sessions.
	dataNet *transport.Network
	genSink GenSink

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
	s := &Session{
		serverCore: serverCore{obs: cfg.registry()},
		cfg:        cfg,
		net:        transport.NewNetwork(netOpts...),
		dataNet:    dataNet,
		genSink:    settings.genSink,
		clients:    make(map[string]*Client),
	}
	ep, err := s.endpoint("server", clientSettings{})
	if err == nil {
		err = s.start(ep, content, cfg)
	}
	if err != nil {
		s.closeNets()
		return nil, err
	}
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
// lossy-peer drill behind the link-telemetry estimators. It needs a data
// plane (Config.DatagramData), in a Session or through Dial; without one
// AddClient and Dial return an error (use WithLoss on a single-fabric
// session).
func WithClientDataLoss(p float64) ClientOption {
	return func(c *clientSettings) { c.dataLoss = p }
}

// WithClientDataDelay adds d to each of this client's inbound data-plane
// frame deliveries, so its keepalive-probe RTT EWMAs reflect a slow link.
// The delay is applied serially on the receive path — keep the inbound
// frame rate well under 1/d or the injection itself becomes the
// bottleneck. Like WithClientDataLoss it needs a data plane.
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
	settings := clientSettings{seed: int64(s.nextID), genSink: s.genSink}
	s.mu.Unlock()
	for _, o := range opts {
		o(&settings)
	}
	ep, err := s.endpoint(addr, settings)
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, session: s}
	if err := c.join(ctx, &s.wg, ep, "server", s.cfg, settings, s.obs); err != nil {
		return nil, err
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
	s.closeNets()
	s.wg.Wait()
	return nil
}

// closeNets closes the session's fabric(s).
func (s *Session) closeNets() {
	s.net.Close()
	if s.dataNet != nil {
		s.dataNet.Close()
	}
}

// endpoint registers addr on the session fabric(s): one endpoint, or in
// datagram mode a Dual over both fabrics whose data plane alone takes the
// fault plan of set, so per-client loss/delay injection never touches
// control traffic (exactly like real UDP loss under a TCP control channel).
func (s *Session) endpoint(addr string, set clientSettings) (transport.Endpoint, error) {
	fault, err := set.faults(s.dataNet != nil, 0, set.seed)
	if err != nil {
		return nil, err
	}
	ctrl, err := s.net.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	var data transport.Endpoint
	if s.dataNet != nil {
		if data, err = s.dataNet.Endpoint(addr); err != nil {
			ctrl.Close()
			return nil, err
		}
	}
	return planes(s.obs, addr, ctrl, data, [2]string{"ctrl", "data"}, fault), nil
}

// Client is one overlay node of a session.
type Client struct {
	clientCore
	addr    string
	session *Session
}

// Leave performs the §3 good-bye protocol and waits for the ack.
func (c *Client) Leave(ctx context.Context) error {
	if err := c.leave(ctx); err != nil {
		return err
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
