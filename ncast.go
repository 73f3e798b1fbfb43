// Package ncast is a peer-to-peer content broadcasting library built on
// randomized linear network coding, implementing the overlay construction
// of Jain, Lovász, and Chou, "Building Scalable and Robust Peer-to-Peer
// Overlay Networks for Broadcasting using Network Coding" (PODC 2005).
//
// A broadcast session consists of a Server — the paper's curtain rod: the
// tracker that owns the overlay matrix M plus the data source that emits k
// unit-bandwidth coded streams — and any number of Clients, each of which
// clips onto d random threads, re-mixes the packets it receives with
// random linear network coding, forwards one unit stream per thread, and
// decodes the content once it has gathered full rank.
//
// Two deployment styles are supported:
//
//   - In-process sessions (NewSession) over an in-memory message fabric
//     with configurable loss and latency — for simulations, tests, and
//     the examples/ programs.
//   - TCP sessions (ListenAndServe, Dial) — the same protocol over real
//     sockets, used by the cmd/ncast-server and cmd/ncast-node tools.
//
// The analysis-plane packages (overlay defect measurement, the experiment
// harness regenerating the paper's claims) live under internal/ and are
// exercised through cmd/ncast-bench and the repository's benchmarks.
package ncast

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ncast/internal/core"
	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/protocol"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// Field selects the network-coding field.
type Field int

// Supported coding fields. GF256 is the practical default (near-zero
// decode waste at one byte per coefficient); GF2 is cheap but wasteful;
// GF65536 trades double coefficient overhead for marginally fewer
// non-innovative packets.
const (
	GF2 Field = iota + 1
	GF256
	GF65536
)

func (f Field) field() (gf.Field, error) {
	switch f {
	case GF2:
		return gf.F2, nil
	case GF256:
		return gf.F256, nil
	case GF65536:
		return gf.F65536, nil
	default:
		return nil, fmt.Errorf("ncast: unknown field %d", f)
	}
}

// InsertMode selects how the server places joining nodes in the overlay.
type InsertMode int

// InsertAppend is the paper's §3 scheme (new rows at the bottom);
// InsertRandom is the §5 hardening that makes coordinated adversarial
// arrivals no more harmful than random failures.
const (
	InsertAppend InsertMode = InsertMode(core.InsertAppend)
	InsertRandom InsertMode = InsertMode(core.InsertRandom)
)

// Config collects session parameters. The zero value is unusable; start
// from DefaultConfig and set the fields that differ.
type Config struct {
	// K is the server's bandwidth in unit streams (threads).
	K int
	// D is the default node degree (incoming/outgoing unit streams).
	D int
	// Field is the coding field.
	Field Field
	// GenSize is the number of source packets per generation.
	GenSize int
	// PacketSize is the coded-packet payload size in bytes.
	PacketSize int
	// Insert selects append or random row insertion.
	Insert InsertMode
	// ComplaintTimeout is how long a client waits on a silent thread
	// before reporting the parent to the tracker.
	ComplaintTimeout time.Duration
	// LeaseTimeout enables server-side liveness leases: a node silent for
	// longer than this is presumed crashed and spliced out of the overlay
	// via the repair procedure. Complaints only detect failed nodes that
	// have children; the lease sweep is what reclaims a crashed bottom
	// clip (a node with no children) whose row would otherwise dangle
	// forever. Clients renew at a quarter of this timeout (announced in
	// the welcome), and any control message also renews. Zero disables.
	LeaseTimeout time.Duration
	// Seed drives the server's randomness (thread assignment).
	Seed int64
	// SourceInterval paces the source pump at one round per interval,
	// kept on a deadline, and a paced source streams in order: each thread
	// gives a generation its share of ⌈GenSize/D⌉ frames and moves on, in
	// lockstep with the other threads, and re-sends one its subtree still
	// lacks after a measured report lag. 0 leaves the pump to transport
	// backpressure, sweeping every open generation.
	SourceInterval time.Duration
	// LayerWeights, when non-empty, enables §5 priority-layered
	// broadcasting: the content is split into len(LayerWeights) equal
	// priority layers, and the coded stream is weighted toward lower
	// layers so degraded receivers finish the base layer first.
	LayerWeights []float64
	// DisableObs turns runtime observability off: no metrics registry is
	// created and every layer runs on bundles of nil series, each call a
	// no-op after one nil check. Snapshot then returns an empty snapshot.
	DisableObs bool
	// TraceCap sizes the observability trace-event ring (the diagnostic
	// replay window served at /debug/overlay). 0 means the obs default
	// (256 events); larger rings trade memory for a longer history.
	TraceCap int
	// StatsInterval, when positive, makes every node send the server one
	// compact telemetry report per interval (rank vector, decode-delay
	// quantiles, flow counters), which the server aggregates into the
	// ClusterSnapshot fleet view. Zero disables fleet telemetry.
	StatsInterval time.Duration
	// DecodeWorkers sets each client's decode worker pool size: packets
	// are sharded to workers by generation, so distinct generations run
	// their Gaussian elimination concurrently while each generation
	// stays single-threaded. 0 or 1 decodes inline on the receive loop;
	// values above 1 help multi-generation sessions on multi-core hosts.
	DecodeWorkers int
	// DatagramData splits the session's transport into two planes: control
	// messages (hello/goodbye/repair/stats/leases) stay on the reliable
	// transport, while coded data frames and keepalives move to lossy
	// datagrams (UDP for socket sessions, a second in-memory fabric for
	// NewSession). RLNC makes datagram loss harmless by construction, and
	// dropping TCP from the data path removes head-of-line blocking and
	// per-connection state — the paper's operating regime.
	DatagramData bool
	// MTU bounds one datagram's payload when DatagramData is set (0 means
	// the 1452-byte default). Validate rejects configurations whose
	// worst-case data frame cannot fit; see MaxPacketSize.
	MTU int
	// DataLoss, with DatagramData, injects seeded random loss on the data
	// plane (socket sessions; NewSession uses the fabric's own loss knob).
	// It exists so the loss-as-normal regime is reproducible in tests and
	// demos without a misbehaving network. Zero injects nothing.
	DataLoss float64
	// TraceRate enables dissemination tracing: the source samples roughly
	// one generation in TraceRate (1 = every generation) and stamps its
	// frames with a trace context that nodes propagate through recoding
	// and report to the server, which assembles per-generation hop trees
	// served at /debug/trace and summarized in ClusterSnapshot. 0 (the
	// default) disables sampling; frames then carry no trace context, at
	// zero extra cost.
	TraceRate int
}

// DefaultConfig returns the baseline configuration: k=16 threads, degree
// d=4, GF(256), 16-packet generations of 1 KiB packets, append insertion.
func DefaultConfig() Config {
	return Config{
		K:                16,
		D:                4,
		Field:            GF256,
		GenSize:          16,
		PacketSize:       1024,
		Insert:           InsertAppend,
		ComplaintTimeout: 500 * time.Millisecond,
		LeaseTimeout:     2 * time.Second,
		Seed:             1,
		SourceInterval:   200 * time.Microsecond,
		StatsInterval:    time.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K <= 0 || c.D <= 0 || c.D > c.K {
		return fmt.Errorf("ncast: invalid k=%d d=%d (need 0 < d <= k)", c.K, c.D)
	}
	f, err := c.Field.field()
	if err != nil {
		return err
	}
	params := rlnc.Params{Field: f, GenSize: c.GenSize, PacketSize: c.PacketSize}
	if err := params.Validate(); err != nil {
		return err
	}
	switch c.Insert {
	case InsertAppend, InsertRandom:
	default:
		return fmt.Errorf("ncast: invalid insert mode %d", c.Insert)
	}
	if len(c.LayerWeights) > 0 {
		lp := rlnc.LayeredParams{Params: params, Weights: c.LayerWeights}
		if err := lp.Validate(); err != nil {
			return err
		}
	}
	if c.DataLoss < 0 || c.DataLoss >= 1 {
		return fmt.Errorf("ncast: data loss %v outside [0,1)", c.DataLoss)
	}
	if c.DataLoss > 0 && !c.DatagramData {
		return fmt.Errorf("ncast: data loss %v needs DatagramData (it drops datagrams only)", c.DataLoss)
	}
	if c.DatagramData {
		if maxPkt := MaxPacketSize(c.mtu(), c.Field, c.GenSize); c.PacketSize > maxPkt {
			return fmt.Errorf("ncast: packet size %d exceeds %d, the largest fitting a %d-byte datagram (shrink packets or raise the MTU)",
				c.PacketSize, maxPkt, c.mtu())
		}
	}
	return nil
}

// mtu returns the effective datagram payload budget.
func (c Config) mtu() int {
	if c.MTU > 0 {
		return c.MTU
	}
	return transport.DefaultMTU
}

// senderPrefixBudget reserves datagram room for the transport's
// [4B len][sender addr] prefix: 4 bytes plus a host:port of up to 64
// characters (an IPv6 literal with brackets and port fits).
const senderPrefixBudget = 4 + 64

// MaxPacketSize returns the largest coded-packet payload whose worst-case
// data frame (traced header, packet header, coefficient vector, sender
// prefix) still fits one datagram of the given MTU, for a session over
// the given field and generation size. It returns 0 for an unknown field.
func MaxPacketSize(mtu int, field Field, genSize int) int {
	f, err := field.field()
	if err != nil {
		return 0
	}
	n := mtu - senderPrefixBudget - protocol.DataFrameOverhead(f, genSize)
	if n < 0 {
		return 0
	}
	return n
}

// registry returns the session's metrics registry, or nil when
// observability is disabled.
func (c Config) registry() *obs.Registry {
	if c.DisableObs {
		return nil
	}
	return obs.NewRegistry(obs.WithTraceCapacity(c.TraceCap))
}

// serverCore is the server role both server shells share: the tracker
// and the data source on one endpoint, the registry they report into, and
// the goroutines running them.
type serverCore struct {
	tracker      *protocol.Tracker
	source       *protocol.Source
	obs          *obs.Registry
	cancel       context.CancelFunc
	sourceCancel context.CancelFunc
	wg           sync.WaitGroup
}

// start builds the flat or layered data source and the tracker routing
// it on ep, both instrumented into s.obs (nil leaves them
// uninstrumented), and runs them until cancel; sourceCancel stops the
// source alone.
func (s *serverCore) start(ep transport.Endpoint, content []byte, c Config) error {
	reg := s.obs
	f, err := c.Field.field()
	if err != nil {
		return err
	}
	params := rlnc.Params{Field: f, GenSize: c.GenSize, PacketSize: c.PacketSize}
	var source *protocol.Source
	if len(c.LayerWeights) > 0 {
		lp := rlnc.LayeredParams{Params: params, Weights: c.LayerWeights}
		source, err = protocol.NewLayeredSource(ep, c.K, lp, content, c.Seed)
	} else {
		source, err = protocol.NewSource(ep, c.K, params, content, c.Seed)
	}
	if err != nil {
		return err
	}
	source.RoundInterval = c.SourceInterval
	source.Obs = obs.NewSourceMetrics(reg)
	source.TraceRate = c.TraceRate
	// Each generation's source packets go out uncoded first: receivers
	// install them without elimination (ignored in layered mode).
	source.Systematic = true
	tracker, err := protocol.NewTracker(ep, source, protocol.TrackerConfig{
		K:             c.K,
		D:             c.D,
		Session:       source.Session(),
		InsertMode:    core.InsertMode(c.Insert),
		Seed:          c.Seed,
		LeaseTimeout:  c.LeaseTimeout,
		StatsInterval: c.StatsInterval,
		Obs:           obs.NewTrackerMetrics(reg),
	})
	if err != nil {
		return err
	}
	obs.NewRuntimeMetrics(reg)
	s.tracker, s.source = tracker, source
	ctx, cancel := context.WithCancel(context.Background())
	sourceCtx, sourceCancel := context.WithCancel(ctx)
	s.cancel, s.sourceCancel = cancel, sourceCancel
	s.wg.Add(2)
	go func() { defer s.wg.Done(); _ = tracker.Run(ctx) }()
	go func() { defer s.wg.Done(); _ = source.Run(sourceCtx) }()
	return nil
}

// NumNodes returns the current overlay population.
func (s *serverCore) NumNodes() int { return s.tracker.NumNodes() }

// CompletedCount returns how many clients reported a full decode.
func (s *serverCore) CompletedCount() int { return s.tracker.CompletedCount() }

// Events exposes tracker events (join/leave/repair/complete).
func (s *serverCore) Events() <-chan protocol.TrackerEvent { return s.tracker.Events() }

// Observability returns the server's metrics registry (nil when disabled
// via DisableObs). Pass it to obs.Serve to expose /metrics and
// /debug/overlay over HTTP.
func (s *serverCore) Observability() *obs.Registry { return s.obs }

// Snapshot captures the server's current health: overlay matrix-M state
// (population, degree distribution, hanging threads), every metric series,
// and the most recent trace events.
func (s *serverCore) Snapshot() obs.OverlaySnapshot {
	snap := registrySnapshot(s.obs)
	h := s.tracker.Health()
	snap.Overlay = &h
	return snap
}

// ClusterSnapshot returns the server-aggregated fleet telemetry view:
// every node's latest stats report with freshness, per-generation decode
// status with straggler detection, and fleet-wide decode-delay quantiles.
// Nodes report only when Config.StatsInterval is positive. Pass it to
// obs.WithClusterSnapshot to serve it at /debug/cluster.
func (s *serverCore) ClusterSnapshot() obs.ClusterSnapshot {
	return s.tracker.ClusterSnapshot()
}

// TraceSnapshot returns the assembled dissemination-tracing view (hop
// trees per sampled generation, fleet hop-depth distribution). Empty
// unless Config.TraceRate is positive and traced reports have arrived.
// Pass it to obs.WithTraceSnapshot to serve it at /debug/trace.
func (s *serverCore) TraceSnapshot() obs.TraceSnapshot {
	return s.tracker.TraceSnapshot()
}

// LinkSnapshot returns the aggregated fleet link matrix: every reported
// (reporter, peer) edge with its loss estimate, RTT/jitter EWMAs,
// innovation rate and goodput, plus the worst-links digest, over any
// transport. Edges appear only when Config.StatsInterval is positive.
// Pass it to obs.WithLinkSnapshot to serve it at /debug/links.
func (s *serverCore) LinkSnapshot() obs.LinkSnapshot {
	return s.tracker.LinkSnapshot()
}

// registrySnapshot captures reg's metric series and recent trace events;
// callers add the overlay or node health.
func registrySnapshot(reg *obs.Registry) obs.OverlaySnapshot {
	snap := obs.OverlaySnapshot{At: time.Now()}
	snap.Metrics = reg.Snapshot()
	snap.Recent = reg.Trace().Events()
	snap.DroppedEvents = reg.Trace().Dropped()
	return snap
}

// planes instruments a session endpoint under the metrics name. With no
// data plane, ctrl carries everything under the endpoint-only label set.
// Otherwise each plane is instrumented as its own transport kind (kinds
// holds the control and data labels), fault (when non-nil) wraps the data
// plane under its instrumentation, so injected drops land on the bundle
// real losses do and control traffic never sees them, and a Dual splits
// data frames onto the data plane.
func planes(reg *obs.Registry, name string, ctrl, data transport.Endpoint, kinds [2]string, fault *transport.FaultConfig) transport.Endpoint {
	if data == nil {
		transport.Instrument(ctrl, obs.NewTransportMetrics(reg, name))
		return ctrl
	}
	if fault != nil {
		data = transport.NewFaulty(data, *fault)
	}
	transport.Instrument(ctrl, obs.NewTransportMetricsKind(reg, name, kinds[0]))
	transport.Instrument(data, obs.NewTransportMetricsKind(reg, name, kinds[1]))
	return transport.NewDual(ctrl, data, protocol.DataPlaneFrame)
}

// faults is the fault plan of an endpoint's data plane: sendLoss of its
// outbound frames dropped, and the client's inbound loss and delay, on
// coins seeded by seed. It is nil when the plan injects nothing, and an
// error when the client asks for faults and there is no data plane.
func (c clientSettings) faults(dataPlane bool, sendLoss float64, seed int64) (*transport.FaultConfig, error) {
	f := transport.FaultConfig{SendLoss: sendLoss, RecvLoss: c.dataLoss, RecvDelay: c.dataDelay, Seed: seed}
	switch {
	case f == transport.FaultConfig{Seed: seed}:
		return nil, nil
	case !dataPlane:
		return nil, errors.New("ncast: client data loss and delay need DatagramData (they act on the data plane only)")
	}
	return &f, nil
}

// clientCore is the client role both client shells share: one overlay
// node and the cancel that stops its run.
type clientCore struct {
	node   *protocol.Node
	cancel context.CancelFunc
}

// join builds the node on ep, runs it under wg and waits for the tracker
// at trackerAddr to admit it. On failure the node is stopped and ep
// closed; wg still covers the node's exit.
func (c *clientCore) join(ctx context.Context, wg *sync.WaitGroup, ep transport.Endpoint, trackerAddr string, cfg Config, set clientSettings, reg *obs.Registry) error {
	c.node = protocol.NewNode(ep, protocol.NodeConfig{
		TrackerAddr:      trackerAddr,
		Degree:           set.degree,
		ComplaintTimeout: cfg.ComplaintTimeout,
		Seed:             set.seed,
		DecodeWorkers:    cfg.DecodeWorkers,
		Obs:              obs.NewNodeMetrics(reg, ep.Addr()),
		GenSink:          set.genSink,
	})
	runCtx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	wg.Add(1)
	go func() { defer wg.Done(); _ = c.node.Run(runCtx) }()
	var err error
	select {
	case err = <-c.node.Joined():
		if err == nil {
			return nil
		}
	case <-ctx.Done():
		err = ctx.Err()
	}
	cancel()
	ep.Close()
	return err
}

// leave performs the §3 good-bye protocol and waits for the ack.
func (c *clientCore) leave(ctx context.Context) error {
	if err := c.node.Leave(ctx); err != nil {
		return err
	}
	select {
	case <-c.node.Left():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ID returns the overlay node id assigned by the tracker.
func (c *clientCore) ID() uint64 { return c.node.ID() }

// Progress returns the decoded-rank fraction in [0,1].
func (c *clientCore) Progress() float64 { return c.node.Progress() }

// Stats returns (received, innovative) packet counts.
func (c *clientCore) Stats() (received, innovative int) { return c.node.Stats() }

// Completed closes when the full content has been decoded.
func (c *clientCore) Completed() <-chan struct{} { return c.node.Completed() }

// Wait blocks until completion or context cancellation.
func (c *clientCore) Wait(ctx context.Context) error {
	select {
	case <-c.node.Completed():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Content returns the decoded blob once complete.
func (c *clientCore) Content() ([]byte, error) { return c.node.Content() }

// CompletedLayers returns, for layered sessions, the number of consecutive
// priority layers fully decoded (the playable resolution; flat sessions
// report 1 when complete).
func (c *clientCore) CompletedLayers() int { return c.node.CompletedLayers() }

// Layer returns the decoded bytes of priority layer l once complete.
func (c *clientCore) Layer(l int) ([]byte, error) { return c.node.Layer(l) }

// Congest asks for §5 congestion relief: the client drops one thread and
// its parent is joined directly to its child. Asynchronous; observe the
// effect via Degree.
func (c *clientCore) Congest(ctx context.Context) error { return c.node.Congest(ctx) }

// Uncongest regrows one previously dropped thread (§5 recovery).
func (c *clientCore) Uncongest(ctx context.Context) error { return c.node.Uncongest(ctx) }

// Degree returns the client's current thread count.
func (c *clientCore) Degree() int { return c.node.Degree() }

// Option mutates a Config. Set plain fields directly; the two options
// below also clamp the packet size to what one datagram admits.
type Option func(*Config)

// WithDatagramData moves coded data frames and keepalives onto a lossy
// datagram data plane, keeping control traffic on the reliable transport
// (see Config.DatagramData). It also clamps the packet size to what the
// MTU admits, so the default configuration stays valid out of the box.
func WithDatagramData() Option {
	return func(c *Config) {
		c.DatagramData = true
		c.clampPacket()
	}
}

// WithDatagramMTU sets the datagram payload budget (see Config.MTU) and
// re-clamps the packet size to fit it. Apply after setting Field, GenSize
// and PacketSize so the clamp sees the final coding parameters.
func WithDatagramMTU(mtu int) Option {
	return func(c *Config) {
		c.MTU = mtu
		c.clampPacket()
	}
}

// clampPacket shrinks the packet size to the largest that fits one
// datagram of the configured MTU.
func (c *Config) clampPacket() {
	if maxPkt := MaxPacketSize(c.mtu(), c.Field, c.GenSize); maxPkt > 0 && c.PacketSize > maxPkt {
		c.PacketSize = maxPkt
	}
}

// ErrClosed is returned by operations on a closed session.
var ErrClosed = errors.New("ncast: closed")
