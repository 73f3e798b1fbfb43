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
	"errors"
	"fmt"
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

// Config collects session parameters. The zero value is unusable; obtain
// defaults through the options on NewSession / ListenAndServe.
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
	// SourceInterval throttles the source pump (0 = backpressure only).
	SourceInterval time.Duration
	// LayerWeights, when non-empty, enables §5 priority-layered
	// broadcasting: the content is split into len(LayerWeights) equal
	// priority layers, and the coded stream is weighted toward lower
	// layers so degraded receivers finish the base layer first.
	LayerWeights []float64
	// DisableObs turns runtime observability off: no metrics registry is
	// created and every layer runs uninstrumented (one nil check per hot
	// path). Snapshot then returns an empty snapshot.
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
	// Systematic makes the source emit each generation's GenSize source
	// packets uncoded (flagged on the wire) before switching to random
	// coding. Receivers install such packets without any Gaussian
	// elimination, so on loss-free paths decode runs at copy speed and
	// only the repair tail pays field arithmetic. Ignored in layered
	// mode.
	Systematic bool
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
		Systematic:       true,
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

// newServer builds the server side of a session on ep: the flat or
// layered data source and the tracker routing it, both instrumented into
// reg (nil leaves them uninstrumented). The caller runs both.
func (c Config) newServer(ep transport.Endpoint, content []byte, reg *obs.Registry) (*protocol.Source, *protocol.Tracker, error) {
	f, err := c.Field.field()
	if err != nil {
		return nil, nil, err
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
		return nil, nil, err
	}
	source.RoundInterval = c.SourceInterval
	source.Obs = obs.NewSourceMetrics(reg)
	source.TraceRate = c.TraceRate
	source.Systematic = c.Systematic
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
		return nil, nil, err
	}
	obs.NewRuntimeMetrics(reg)
	return source, tracker, nil
}

// registrySnapshot captures reg's metric series and recent trace events;
// callers add the overlay or node health.
func registrySnapshot(reg *obs.Registry) obs.OverlaySnapshot {
	snap := obs.OverlaySnapshot{At: time.Now()}
	if reg != nil {
		snap.Metrics = reg.Snapshot()
		snap.Recent = reg.Trace().Events()
		snap.DroppedEvents = reg.Trace().Dropped()
	}
	return snap
}

// Option mutates a Config.
type Option func(*Config)

// WithKD sets the server thread count and default node degree.
func WithKD(k, d int) Option {
	return func(c *Config) { c.K, c.D = k, d }
}

// WithField selects the coding field.
func WithField(f Field) Option {
	return func(c *Config) { c.Field = f }
}

// WithGeneration sets the generation size (packets) and packet size
// (bytes).
func WithGeneration(genSize, packetSize int) Option {
	return func(c *Config) { c.GenSize, c.PacketSize = genSize, packetSize }
}

// WithInsertMode selects append (§3) or random (§5) row insertion.
func WithInsertMode(m InsertMode) Option {
	return func(c *Config) { c.Insert = m }
}

// WithComplaintTimeout tunes failure detection latency.
func WithComplaintTimeout(d time.Duration) Option {
	return func(c *Config) { c.ComplaintTimeout = d }
}

// WithLeaseTimeout tunes (or, with 0, disables) the server's liveness
// lease sweep — the detector for nodes that crash without a good-bye and
// have no children to complain about them.
func WithLeaseTimeout(d time.Duration) Option {
	return func(c *Config) { c.LeaseTimeout = d }
}

// WithSeed makes the session deterministic.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithSourceInterval throttles the source pump.
func WithSourceInterval(d time.Duration) Option {
	return func(c *Config) { c.SourceInterval = d }
}

// WithLayers enables §5 priority-layered broadcasting with the given
// per-layer stream weights (base layer first).
func WithLayers(weights ...float64) Option {
	return func(c *Config) { c.LayerWeights = append([]float64(nil), weights...) }
}

// WithoutObservability disables the runtime metrics layer entirely.
func WithoutObservability() Option {
	return func(c *Config) { c.DisableObs = true }
}

// WithTraceCap sizes the trace-event ring (see Config.TraceCap).
func WithTraceCap(n int) Option {
	return func(c *Config) { c.TraceCap = n }
}

// WithStatsInterval sets (or, with 0, disables) the per-node telemetry
// reporting cadence behind the fleet ClusterSnapshot view.
func WithStatsInterval(d time.Duration) Option {
	return func(c *Config) { c.StatsInterval = d }
}

// WithDecodeWorkers sets the per-client decode worker pool size (see
// Config.DecodeWorkers).
func WithDecodeWorkers(n int) Option {
	return func(c *Config) { c.DecodeWorkers = n }
}

// WithTraceRate enables dissemination tracing at a 1-in-n generation
// sampling rate (see Config.TraceRate; 0 disables).
func WithTraceRate(n int) Option {
	return func(c *Config) { c.TraceRate = n }
}

// WithSystematic toggles systematic seeding: each generation's source
// packets are sent once uncoded before random coding begins (see
// Config.Systematic; on by default).
func WithSystematic(on bool) Option {
	return func(c *Config) { c.Systematic = on }
}

// WithDatagramData moves coded data frames and keepalives onto a lossy
// datagram data plane, keeping control traffic on the reliable transport
// (see Config.DatagramData). It also clamps the packet size to what the
// MTU admits, so the default configuration stays valid out of the box.
func WithDatagramData() Option {
	return func(c *Config) {
		c.DatagramData = true
		if maxPkt := MaxPacketSize(c.mtu(), c.Field, c.GenSize); maxPkt > 0 && c.PacketSize > maxPkt {
			c.PacketSize = maxPkt
		}
	}
}

// WithDatagramMTU sets the datagram payload budget (see Config.MTU) and
// re-clamps the packet size to fit it. Apply after WithGeneration and
// WithField so the clamp sees the final coding parameters.
func WithDatagramMTU(mtu int) Option {
	return func(c *Config) {
		c.MTU = mtu
		if maxPkt := MaxPacketSize(c.mtu(), c.Field, c.GenSize); maxPkt > 0 && c.PacketSize > maxPkt {
			c.PacketSize = maxPkt
		}
	}
}

// WithDataLoss injects seeded random loss on the datagram data plane of
// socket sessions (see Config.DataLoss).
func WithDataLoss(p float64) Option {
	return func(c *Config) { c.DataLoss = p }
}

// ErrClosed is returned by operations on a closed session.
var ErrClosed = errors.New("ncast: closed")
