// Package transport provides the message transports the protocol layer
// runs on: an in-memory transport with configurable latency and loss (for
// tests and simulations — the substitution for real residential links
// documented in DESIGN.md) and a TCP transport (for the cmd/ tools).
//
// The abstraction is deliberately minimal: datagram-style framed messages
// between named endpoints. Reliability semantics are those of the
// underlying medium — the in-memory transport can drop frames when
// configured with loss, mimicking ergodic failures; TCP never drops.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ncast/internal/obs"
)

// ErrClosed is returned after an endpoint or network is closed.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownPeer is returned when sending to an address with no endpoint.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// MuxSep separates a multiplexing endpoint's address from a virtual
// sub-address: a frame sent to "swarm0"+MuxSep+"n42" is delivered to the
// endpoint registered as "swarm0", which demultiplexes by the full
// destination (RecvTo). The separator is reserved across transports —
// no plain endpoint address may contain it — so PeerKey can map any
// address to the transport-level peer it rides to.
const MuxSep = '!'

// PeerKey returns the transport-level peer an address routes to: the
// base endpoint for mux sub-addresses, the address itself otherwise.
// Control planes that keep per-peer state (the tracker's outbox workers)
// key it by PeerKey so a thousand virtual nodes multiplexed behind one
// endpoint cost one worker, not a thousand.
func PeerKey(addr string) string {
	for i := 0; i < len(addr); i++ {
		if addr[i] == MuxSep {
			return addr[:i]
		}
	}
	return addr
}

// maxFrame bounds a frame's size on stream transports (16 MiB).
const maxFrame = 16 << 20

// Instrumentable is implemented by endpoints that can carry obs metrics.
// Both built-in endpoint types do.
type Instrumentable interface {
	// SetMetrics attaches the bundle; it is safe to call concurrently
	// with traffic and with a nil bundle (which un-instruments).
	SetMetrics(*obs.TransportMetrics)
}

// Instrument attaches m to ep when ep supports it; a no-op otherwise.
func Instrument(ep Endpoint, m *obs.TransportMetrics) {
	if i, ok := ep.(Instrumentable); ok {
		i.SetMetrics(m)
	}
}

// QueueWait bounds how long Send waits for room in a full send queue when
// its context carries no deadline. Data-plane senders pass such a context
// and so get drop-on-full after QueueWait without paying for a timer on
// every frame; control senders that must wait longer send on a
// SendWindow, one deadline per sending loop.
const QueueWait = 50 * time.Millisecond

// SendWindow is a sending loop's one deadline context. Every send of the
// loop reuses it while at least half its bound remains, and Context
// replaces it once less remains or it has expired, so a send on a full
// queue waits between bound/2 and bound, and the loop builds one timer per
// bound/2 of wall time at most instead of one per message. A window
// belongs to one goroutine; Stop releases its timer.
type SendWindow struct {
	parent   context.Context
	bound    time.Duration
	ctx      context.Context
	cancel   context.CancelFunc
	deadline time.Time
}

// NewSendWindow returns a window of the given bound under parent; its
// first Context call builds the deadline.
func NewSendWindow(parent context.Context, bound time.Duration) SendWindow {
	return SendWindow{parent: parent, bound: bound}
}

// Context returns the deadline context for the next send.
func (w *SendWindow) Context() context.Context {
	now := time.Now()
	if w.ctx == nil || w.deadline.Sub(now) < w.bound/2 {
		w.Stop()
		w.deadline = now.Add(w.bound)
		w.ctx, w.cancel = context.WithDeadline(w.parent, w.deadline)
	}
	return w.ctx
}

// Stop releases the window's timer; a later Context builds a new one.
func (w *SendWindow) Stop() {
	if w.cancel != nil {
		w.cancel()
		w.ctx, w.cancel = nil, nil
	}
}

// Endpoint is one side of a transport: it can send framed messages to
// named peers and receive messages addressed to it.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() string
	// Send delivers msg to the named peer. It may fail fast (unknown
	// peer, closed) or silently drop (lossy media). A frame is queued
	// without waiting when there is room. When the queue is full, Send
	// waits until ctx is done or, if ctx has no deadline, for at most
	// QueueWait; a frame the in-memory fabric or a datagram transport
	// gives up on is counted as dropped and Send returns nil, as on a
	// congested link, while a stream transport returns the write error.
	// A done ctx returns ctx.Err(). Send does not retain msg: the caller
	// may reuse the buffer as soon as Send returns.
	Send(ctx context.Context, to string, msg []byte) error
	// Recv blocks for the next message, returning the sender's address.
	// msg is the caller's to keep. Endpoints that can hand over several
	// frames per call, in buffers they recycle, also implement
	// BatchReceiver; see Batched.
	Recv(ctx context.Context) (from string, msg []byte, err error)
	// Close releases the endpoint; pending and future Recv calls fail.
	Close() error
}

// Network is an in-memory message fabric connecting named endpoints. A
// send takes no lock: it reads the registry, a sync.Map whose lookups
// are lock-free, and closed, an atomic flag. Registering and closing
// endpoints serialise on mu, which no send takes. The loss coin has a
// lock of its own, taken only on a lossy fabric, so seeded loss stays
// replayable. loss and latency are fixed by NewNetwork's options, so a
// send reads them without a lock.
type Network struct {
	mu sync.Mutex
	// endpoints maps an address to its *memEndpoint; it is written only
	// under mu.
	endpoints sync.Map
	closed    atomic.Bool
	coinMu    sync.Mutex
	rng       *rand.Rand
	loss      float64
	latency   time.Duration
}

// NetworkOption configures a Network.
type NetworkOption func(*Network)

// WithLoss drops each frame independently with probability p (ergodic
// failures of §2).
func WithLoss(p float64) NetworkOption {
	return func(n *Network) { n.loss = p }
}

// WithLatency delays each delivery by d.
func WithLatency(d time.Duration) NetworkOption {
	return func(n *Network) { n.latency = d }
}

// WithSeed seeds the loss coin.
func WithSeed(seed int64) NetworkOption {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// NewNetwork creates an in-memory fabric.
func NewNetwork(opts ...NetworkOption) *Network {
	n := &Network{rng: rand.New(rand.NewSource(0))}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Endpoint registers (or returns an error for a duplicate) address.
func (n *Network) Endpoint(addr string) (Endpoint, error) {
	ep, err := n.register(addr, false, 0)
	if err != nil {
		return nil, err
	}
	return ep, nil
}

// MuxEndpoint registers a multiplexing endpoint: frames addressed to any
// sub-address addr+MuxSep+suffix are delivered here, and SendAs lets the
// caller originate frames from those sub-addresses. One MuxEndpoint
// therefore carries arbitrarily many virtual peers on a single channel —
// the transport substrate for the swarm harness. bufFrames sizes the
// receive buffer (0 means the default 256); mux endpoints aggregating
// thousands of virtual nodes want it deep enough to absorb reply bursts.
func (n *Network) MuxEndpoint(addr string, bufFrames int) (*MuxEndpoint, error) {
	ep, err := n.register(addr, true, bufFrames)
	if err != nil {
		return nil, err
	}
	return &MuxEndpoint{memEndpoint: ep}, nil
}

func (n *Network) register(addr string, mux bool, bufFrames int) (*memEndpoint, error) {
	for i := 0; i < len(addr); i++ {
		if addr[i] == MuxSep {
			return nil, fmt.Errorf("transport: address %q contains reserved separator %q", addr, string(MuxSep))
		}
	}
	if bufFrames <= 0 {
		bufFrames = 256
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints.Load(addr); ok {
		return nil, fmt.Errorf("transport: address %q already registered", addr)
	}
	ep := &memEndpoint{
		net:  n,
		addr: addr,
		mux:  mux,
		ch:   make(chan memFrame, bufFrames),
		done: make(chan struct{}),
	}
	n.endpoints.Store(addr, ep)
	return ep, nil
}

// CloseEndpoint force-closes the endpoint at addr without unregistering
// semantics beyond Close: it simulates a node crash (the process dies; the
// address stops consuming frames). It reports whether an endpoint existed.
func (n *Network) CloseEndpoint(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.endpoints.Load(addr)
	if !ok {
		return false
	}
	ep.(*memEndpoint).closeLocked()
	n.endpoints.Delete(addr)
	return true
}

// Close shuts the fabric and every endpoint down.
func (n *Network) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Swap(true) {
		return nil
	}
	n.endpoints.Range(func(_, ep any) bool {
		ep.(*memEndpoint).closeLocked()
		return true
	})
	return nil
}

// lookup returns the endpoint a frame to addr is delivered to, or nil.
// A sub-address routes to its base endpoint, but only when that endpoint
// opted into demultiplexing: a plain endpoint never sees frames for
// addresses it did not register. Neither read takes a lock.
func (n *Network) lookup(addr string) *memEndpoint {
	if ep, ok := n.endpoints.Load(addr); ok {
		return ep.(*memEndpoint)
	}
	if base := PeerKey(addr); base != addr {
		if ep, ok := n.endpoints.Load(base); ok && ep.(*memEndpoint).mux {
			return ep.(*memEndpoint)
		}
	}
	return nil
}

// epoch is the fabric's monotonic time origin. A frame's due time is its
// offset from epoch in nanoseconds, 8 bytes where a time.Time takes 24,
// which keeps memFrame at 64 bytes: one inline copy per channel hop.
var epoch = time.Now()

// sinceEpoch reads the monotonic clock as nanoseconds since epoch.
func sinceEpoch() int64 { return int64(time.Since(epoch)) }

type memFrame struct {
	from string
	// to is the full destination address; it differs from the receiving
	// endpoint's own address when the frame was prefix-routed to a mux
	// endpoint, which demultiplexes on it.
	to string
	// msg lies in a buffer from the receiving endpoint's pool.
	msg []byte
	// due is when the frame may be delivered (enqueue time + latency), in
	// nanoseconds since epoch; zero means immediately.
	due int64
}

type memEndpoint struct {
	net  *Network
	addr string
	// mux marks the endpoint as accepting prefix-routed sub-addresses.
	mux bool
	ch  chan memFrame
	// done signals closure; the data channel itself is never closed, so
	// concurrent senders can never hit a closed-channel panic — they
	// select on done instead. closed is set just before done is closed,
	// so a sender checks it without a select.
	done    chan struct{}
	closed  atomic.Bool
	metrics atomic.Pointer[obs.TransportMetrics]
	// pool recycles the buffers senders copy frames for this endpoint
	// into; frames handed out by RecvBatch return to it on Release.
	pool framePool
	// held is a frame RecvBatch took off the channel before it was due on
	// a fabric with latency; the next receive delivers it first. Only the
	// endpoint's single reader touches it.
	held    memFrame
	hasHeld bool
}

var (
	_ Endpoint       = (*memEndpoint)(nil)
	_ BatchReceiver  = (*memEndpoint)(nil)
	_ Instrumentable = (*memEndpoint)(nil)
)

func (e *memEndpoint) Addr() string { return e.addr }

// SetMetrics attaches obs counters to the endpoint.
func (e *memEndpoint) SetMetrics(m *obs.TransportMetrics) { e.metrics.Store(m) }

func (e *memEndpoint) Send(ctx context.Context, to string, msg []byte) error {
	return e.sendFrom(ctx, e.addr, to, msg)
}

func (e *memEndpoint) sendFrom(ctx context.Context, from, to string, msg []byte) error {
	m := e.metrics.Load()
	n := e.net
	if n.closed.Load() {
		return ErrClosed
	}
	dst := n.lookup(to)
	drop := n.lost()
	if dst == nil {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	if drop {
		m.Dropped()
		return nil // silently lost, like a UDP frame on a congested link
	}
	if dst.closed.Load() {
		m.Dropped()
		return nil // receiver gone: frame lost
	}
	buf := dst.pool.get(len(msg))
	copy(buf, msg)
	frame := memFrame{from: from, to: to, msg: buf}
	if latency := n.latency; latency > 0 {
		// Latency is applied on the delivery side (Recv waits until the
		// frame is due), so concurrent frames pipeline like packets on a
		// real link instead of serialising their senders. Enqueueing
		// still waits on a full buffer, which is the backpressure that
		// keeps fast producers honest.
		frame.due = sinceEpoch() + int64(latency)
	}
	select {
	case dst.ch <- frame:
		m.Sent(len(msg))
		return nil
	default:
	}
	// The queue is full. Only now is a timer worth its cost, and only
	// when the context does not already bound the wait.
	var expired <-chan time.Time
	if _, ok := ctx.Deadline(); !ok {
		timer := time.NewTimer(QueueWait)
		defer timer.Stop()
		expired = timer.C
	}
	var err error
	select {
	case dst.ch <- frame:
		m.Sent(len(msg))
		return nil
	case <-dst.done: // receiver gone: frame lost
	case <-expired: // still full after QueueWait: dropped, like a congested link
	case <-ctx.Done():
		err = ctx.Err()
	}
	dst.pool.put(buf)
	m.Dropped()
	return err
}

// lost flips the loss coin of a lossy fabric.
func (n *Network) lost() bool {
	if n.loss <= 0 {
		return false
	}
	n.coinMu.Lock()
	defer n.coinMu.Unlock()
	return n.rng.Float64() < n.loss
}

// Recv implements Endpoint: the one-frame case of RecvBatch. The returned
// buffer is the caller's to keep.
func (e *memEndpoint) Recv(ctx context.Context) (string, []byte, error) {
	var fs [1]Frame
	if _, err := e.recv(ctx, fs[:]); err != nil {
		return "", nil, err
	}
	return fs[0].From, fs[0].Msg, nil
}

// RecvBatch implements BatchReceiver: it blocks for one frame, then takes
// whatever else is already queued, as long as it is due, with no further
// wait. Its frames lie in the endpoint's pool; Release recycles them.
func (e *memEndpoint) RecvBatch(ctx context.Context, frames []Frame) (int, error) {
	n, err := e.recv(ctx, frames)
	if n > 0 {
		e.metrics.Load().ObserveRecvBatch(n)
	}
	return n, err
}

func (e *memEndpoint) recv(ctx context.Context, frames []Frame) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	f, err := e.recvFrame(ctx)
	if err != nil {
		return 0, err
	}
	frames[0] = Frame{From: f.from, Msg: f.msg, buf: f.msg, pool: &e.pool}
	n, bytes := 1, len(f.msg)
	var now int64
	for n < len(frames) {
		select {
		case f = <-e.ch:
		default:
			e.metrics.Load().ReceivedBatch(n, bytes)
			return n, nil
		}
		if f.due != 0 {
			if now == 0 {
				now = sinceEpoch()
			}
			if f.due > now {
				// Not yet due: hold it over for the next receive rather
				// than deliver it early.
				e.held, e.hasHeld = f, true
				break
			}
		}
		frames[n] = Frame{From: f.from, Msg: f.msg, buf: f.msg, pool: &e.pool}
		n++
		bytes += len(f.msg)
	}
	e.metrics.Load().ReceivedBatch(n, bytes)
	return n, nil
}

// recvFrame blocks for the next frame, the held-over one first, and waits
// until it is due. It does not count the frame as received. A closed
// endpoint delivers nothing, not even the frames still queued for it.
func (e *memEndpoint) recvFrame(ctx context.Context) (memFrame, error) {
	if e.closed.Load() {
		return memFrame{}, ErrClosed
	}
	var f memFrame
	if e.hasHeld {
		f, e.held, e.hasHeld = e.held, memFrame{}, false
	} else {
		select {
		case f = <-e.ch:
		case <-e.done:
			return memFrame{}, ErrClosed
		case <-ctx.Done():
			return memFrame{}, ctx.Err()
		}
	}
	// A fabric without latency leaves due zero: skip the clock.
	if f.due != 0 {
		if wait := time.Duration(f.due - sinceEpoch()); wait > 0 {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-ctx.Done():
				// The frame is consumed but undelivered: model it as
				// lost in flight, like a datagram on a dying link.
				e.metrics.Load().Dropped()
				return memFrame{}, ctx.Err()
			}
		}
	}
	return f, nil
}

// MuxEndpoint is an in-memory endpoint that carries many virtual peers:
// frames to any addr+MuxSep+suffix sub-address arrive here (RecvTo reports
// which one), and SendAs originates frames from those sub-addresses. It
// still satisfies Endpoint — plain Recv drops the destination, plain Send
// originates from the base address.
type MuxEndpoint struct {
	*memEndpoint
}

// RecvTo blocks for the next frame, returning both the sender and the
// full destination address the frame was sent to.
func (e *MuxEndpoint) RecvTo(ctx context.Context) (from, to string, msg []byte, err error) {
	f, err := e.recvFrame(ctx)
	if err != nil {
		return "", "", nil, err
	}
	e.metrics.Load().Received(len(f.msg))
	to = f.to
	if to == "" {
		to = e.addr
	}
	return f.from, to, f.msg, nil
}

// SendAs delivers msg to the named peer with from as the sender address.
// from must be this endpoint's address or one of its sub-addresses; the
// restriction keeps virtual senders answerable — replies to from route
// back to this endpoint.
func (e *MuxEndpoint) SendAs(ctx context.Context, from, to string, msg []byte) error {
	if PeerKey(from) != e.addr {
		return fmt.Errorf("transport: SendAs from %q does not route to endpoint %q", from, e.addr)
	}
	return e.sendFrom(ctx, from, to, msg)
}

func (e *memEndpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.closeLocked()
	// Unregister only if the address still maps to this endpoint: after a
	// crash simulated via Network.CloseEndpoint plus a rejoin that
	// re-registered the same address, closing the old endpoint must not
	// evict its successor.
	e.net.endpoints.CompareAndDelete(e.addr, e)
	return nil
}

func (e *memEndpoint) closeLocked() {
	if e.closed.CompareAndSwap(false, true) {
		close(e.done)
	}
}

// WriteFrame writes a length-prefixed frame to w.
func WriteFrame(w io.Writer, msg []byte) error {
	if len(msg) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(msg))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: write frame header: %w", err)
	}
	if _, err := w.Write(msg); err != nil {
		return fmt.Errorf("transport: write frame body: %w", err)
	}
	return nil
}

// ReadFrame reads a length-prefixed frame from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	return readFrame(r, &hdr, nil)
}

// readFrame reads a length-prefixed frame from r into a buffer from pool,
// or a fresh one when pool is nil; hdr is scratch for the length prefix.
func readFrame(r io.Reader, hdr *[4]byte, pool *framePool) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	var msg []byte
	if pool != nil {
		msg = pool.get(int(n))
	} else {
		msg = make([]byte, n)
	}
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, fmt.Errorf("transport: read frame body: %w", err)
	}
	return msg, nil
}

// Conn is a framed, bidirectional stream connection (TCP or net.Pipe).
type Conn struct {
	c  net.Conn
	wm sync.Mutex
	rm sync.Mutex
	// wbuf is sendFrom's frame buffer, guarded by wm.
	wbuf []byte
}

// NewConn wraps a net.Conn with frame semantics.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// Send writes one frame with a write deadline on the underlying
// connection: the context's deadline, or QueueWait from now when it has
// none. Safe for concurrent use. Without it a peer that stops reading
// leaves the writer blocked forever once the kernel buffers fill; with it
// the write fails at the deadline and the caller can drop the connection.
// A deadline error can leave a partial frame on the wire, so callers must
// discard the connection after any error (TCPEndpoint does).
func (c *Conn) Send(ctx context.Context, msg []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	if err := c.armWriteLocked(ctx); err != nil {
		return err
	}
	return WriteFrame(c.c, msg)
}

// sendFrom is Send of a sender-prefixed frame, [4B addr len][from][msg],
// built in the connection's write buffer and written in one call.
func (c *Conn) sendFrom(ctx context.Context, from string, msg []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	n := 4 + len(from) + len(msg)
	if n > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	if err := c.armWriteLocked(ctx); err != nil {
		return err
	}
	c.wbuf = appendSender(binary.BigEndian.AppendUint32(c.wbuf[:0], uint32(n)), from, msg)
	_, err := c.c.Write(c.wbuf)
	if cap(c.wbuf) > maxPooledBuf {
		c.wbuf = nil
	}
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// armWriteLocked fails on a done ctx, else sets the write deadline to
// ctx's, or QueueWait from now. Callers hold c.wm.
func (c *Conn) armWriteLocked(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(QueueWait)
	}
	if err := c.c.SetWriteDeadline(deadline); err != nil {
		return fmt.Errorf("transport: set write deadline: %w", err)
	}
	return nil
}

// Recv reads one frame. Safe for concurrent use with Send.
func (c *Conn) Recv() ([]byte, error) {
	c.rm.Lock()
	defer c.rm.Unlock()
	return ReadFrame(c.c)
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }
