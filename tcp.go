package ncast

import (
	"context"
	"sync"

	"ncast/internal/obs"
	"ncast/internal/transport"
)

// Server is a socket-facing broadcast server: the tracker (overlay
// authority) and the data source bound to one listening address. With
// Config.DatagramData the address serves two planes — control over TCP,
// coded data over UDP on the same port.
type Server struct {
	serverCore
	ep transport.Endpoint
}

// listenEndpoint builds the session transport bound to addr: plain TCP,
// or — with cfg.DatagramData — a dual-plane endpoint whose control half
// is TCP and whose data half is UDP on the same port, each instrumented
// as its own transport kind so scrapes can tell the planes apart; the UDP
// half drops cfg.DataLoss of its sends, and set's inbound loss and delay
// (zero for a server), on coins seeded by cfg.Seed. metricsName labels
// the endpoint in obs; empty means the bound address.
func listenEndpoint(addr, metricsName string, cfg Config, set clientSettings, reg *obs.Registry) (transport.Endpoint, error) {
	fault, err := set.faults(cfg.DatagramData, cfg.DataLoss, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var ctrl, data transport.Endpoint
	if cfg.DatagramData {
		tcp, udp, err := transport.ListenSamePort(addr, transport.UDPConfig{MTU: cfg.mtu()})
		if err != nil {
			return nil, err
		}
		ctrl, data = tcp, udp
	} else {
		tcp, err := transport.ListenTCP(addr)
		if err != nil {
			return nil, err
		}
		ctrl = tcp
	}
	if metricsName == "" {
		metricsName = ctrl.Addr()
	}
	return planes(reg, metricsName, ctrl, data, [2]string{"tcp", "udp"}, fault), nil
}

// ListenAndServe starts a broadcast server for content on addr
// (e.g. "127.0.0.1:0"; use Addr to learn the bound address).
func ListenAndServe(addr string, content []byte, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{serverCore: serverCore{obs: cfg.registry()}}
	ep, err := listenEndpoint(addr, "server", cfg, clientSettings{}, s.obs)
	if err != nil {
		return nil, err
	}
	if err := s.start(ep, content, cfg); err != nil {
		ep.Close()
		return nil, err
	}
	s.ep = ep
	return s, nil
}

// Addr returns the server's listening address.
func (s *Server) Addr() string { return s.ep.Addr() }

// Close stops the server.
func (s *Server) Close() error {
	s.cancel()
	err := s.ep.Close()
	s.wg.Wait()
	return err
}

// RemoteClient is a socket-connected overlay node.
type RemoteClient struct {
	clientCore
	ep  transport.Endpoint
	obs *obs.Registry
	wg  sync.WaitGroup
}

// Dial joins the broadcast at serverAddr, listening on listenAddr
// (typically "127.0.0.1:0" or ":0"). cfg, which must validate, supplies
// the complaint timeout and the planes; opts may request a degree or
// inject faults on the data plane.
func Dial(ctx context.Context, serverAddr, listenAddr string, cfg Config, opts ...ClientOption) (*RemoteClient, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	settings := clientSettings{seed: cfg.Seed}
	for _, o := range opts {
		o(&settings)
	}
	c := &RemoteClient{obs: cfg.registry()}
	ep, err := listenEndpoint(listenAddr, "", cfg, settings, c.obs)
	if err != nil {
		return nil, err
	}
	c.ep = ep
	if err := c.join(ctx, &c.wg, ep, serverAddr, cfg, settings, c.obs); err != nil {
		c.wg.Wait()
		return nil, err
	}
	return c, nil
}

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
	if err := c.leave(ctx); err != nil {
		return err
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
