package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ncast/internal/obs"
)

// This file implements the datagram data plane: a message-oriented UDP
// endpoint whose hot path batches syscalls. Outbound frames are coalesced
// by a one-batch send queue and flushed with sendmmsg (one syscall for up
// to BatchSize datagrams); inbound datagrams are drained with recvmmsg
// into per-slot buffers that are handed to the receiver without copying
// and come back to the slots when the receiver releases its frames.
// On platforms without the mmsg syscalls a portable shim degrades to one
// syscall per datagram with identical semantics (see mmsg_portable.go).
//
// Reliability semantics are UDP's: a frame that cannot be queued in time,
// sent, or delivered is dropped silently (and counted), exactly like loss
// on a congested link. RLNC makes that harmless by construction — no specific
// packet is ever required, only enough innovative ones — which is the
// whole reason the data plane can leave TCP.
//
// Like TCPEndpoint, every datagram carries a [4B len][sender addr] prefix
// so receivers learn the sender's canonical (listening) address: the
// overlay addresses peers by that address, and relying on the packet
// source address would break behind wildcard binds and rewriting NATs.

// ErrFrameTooLarge is returned by UDPEndpoint.Send for frames that cannot
// fit in one datagram under the configured MTU. It fails fast instead of
// fragmenting or silently truncating: a too-big coded frame is a
// configuration error (see ncast.MaxPacketSize), not a transient fault.
var ErrFrameTooLarge = errors.New("transport: frame exceeds datagram MTU")

// UDPConfig parameterises a UDPEndpoint. The zero value selects the
// defaults noted on each field.
type UDPConfig struct {
	// MTU bounds the payload bytes of one datagram, sender prefix
	// included (default 1452: Ethernet 1500 minus IP/UDP headers with
	// margin for IPv6).
	MTU int
	// BatchSize is the maximum datagrams per sendmmsg/recvmmsg call
	// (default 32).
	BatchSize int
	// QueueLen is the receive queue capacity in frames (default 1024); a
	// full receive queue drops, like a congested link. The send queue
	// holds one batch, BatchSize frames.
	QueueLen int
	// Advertise overrides the address stamped into outgoing frames (and
	// returned by Addr). Empty uses the bind address. ListenSamePort sets
	// it to the TCP address so both planes share one identity.
	Advertise string
}

func (c UDPConfig) withDefaults() UDPConfig {
	if c.MTU <= 0 {
		c.MTU = DefaultMTU
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	return c
}

// DefaultMTU is the default datagram payload budget.
const DefaultMTU = 1452

// outDatagram is one queued outbound datagram: the pooled wire buffer
// (sender prefix + payload), the payload length for metrics, and the
// resolved destination.
type outDatagram struct {
	buf  *[]byte
	b    []byte
	plen int
	dest *udpDest
}

// udpDest caches one peer's resolved address: the net form for the
// portable path and the raw sockaddr bytes for the mmsg path.
type udpDest struct {
	ua *net.UDPAddr
	sa []byte // raw sockaddr, linux mmsg builds only (nil elsewhere)
}

// udpBatchIO abstracts vectorized datagram I/O over one UDP socket.
// sendBatch transmits a prefix of batch and returns how many datagrams
// were accepted; when it returns (n, err) with err != nil, batch[n] is the
// datagram that failed. recvBatch blocks for at least one datagram, fills
// bufs[i][:lens[i]], and returns the count. destSockaddr pre-resolves a
// peer address into whatever raw form the implementation sends with (nil
// where the implementation dials through the net package).
type udpBatchIO interface {
	sendBatch(batch []outDatagram) (int, error)
	recvBatch(bufs [][]byte, lens []int) (int, error)
	destSockaddr(ua *net.UDPAddr) ([]byte, error)
}

// UDPEndpoint implements Endpoint over a single UDP socket with batched
// syscalls on both directions of the hot path.
type UDPEndpoint struct {
	conn *net.UDPConn
	addr string
	cfg  UDPConfig
	bio  udpBatchIO

	sendq chan outDatagram
	recvq chan Frame
	done  chan struct{}

	mu     sync.Mutex
	dests  map[string]*udpDest
	closed bool

	wg      sync.WaitGroup
	metrics atomic.Pointer[obs.TransportMetrics]

	// bufPool holds send buffers; recvPool holds the MTU buffers the
	// receive slots are armed with, refilled by Frame.Release.
	bufPool  sync.Pool
	recvPool framePool
}

var (
	_ Endpoint       = (*UDPEndpoint)(nil)
	_ BatchReceiver  = (*UDPEndpoint)(nil)
	_ Instrumentable = (*UDPEndpoint)(nil)
)

// ListenUDP creates a datagram endpoint bound to addr (e.g.
// "127.0.0.1:0").
func ListenUDP(addr string, cfg UDPConfig) (*UDPEndpoint, error) {
	cfg = cfg.withDefaults()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve udp %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen udp %s: %w", addr, err)
	}
	bio, err := newBatchIO(conn, cfg.BatchSize)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: batch io: %w", err)
	}
	return newUDPEndpoint(conn, cfg, bio), nil
}

// newUDPEndpoint starts the send and receive loops of an endpoint over
// conn, doing its datagram I/O through bio; cfg has its defaults applied.
func newUDPEndpoint(conn *net.UDPConn, cfg UDPConfig, bio udpBatchIO) *UDPEndpoint {
	e := &UDPEndpoint{
		conn: conn,
		addr: cfg.Advertise,
		cfg:  cfg,
		bio:  bio,
		// One batch: a producer that fills it waits for the flusher
		// instead of queueing frames the receivers' socket buffers would
		// drop.
		sendq: make(chan outDatagram, cfg.BatchSize),
		recvq: make(chan Frame, cfg.QueueLen),
		done:  make(chan struct{}),
		dests: make(map[string]*udpDest),
	}
	if e.addr == "" {
		e.addr = conn.LocalAddr().String()
	}
	e.bufPool.New = func() any {
		b := make([]byte, 0, cfg.MTU)
		return &b
	}
	e.wg.Add(2)
	go e.sendLoop()
	go e.recvLoop()
	return e
}

// Addr returns the endpoint's advertised address.
func (e *UDPEndpoint) Addr() string { return e.addr }

// SetMetrics attaches obs counters to the endpoint.
func (e *UDPEndpoint) SetMetrics(m *obs.TransportMetrics) { e.metrics.Store(m) }

// dest resolves and caches the peer's address.
func (e *UDPEndpoint) dest(to string) (*udpDest, error) {
	e.mu.Lock()
	d, ok := e.dests[to]
	e.mu.Unlock()
	if ok {
		return d, nil
	}
	ua, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	d = &udpDest{ua: ua}
	if d.sa, err = e.bio.destSockaddr(ua); err != nil {
		return nil, fmt.Errorf("transport: sockaddr %q: %w", to, err)
	}
	e.mu.Lock()
	e.dests[to] = d
	e.mu.Unlock()
	return d, nil
}

// Send queues one frame for batched transmission, under the Endpoint
// contract: it copies msg (the caller may reuse the buffer immediately),
// queues without waiting when the one-batch send queue has room, and on a
// full queue waits until ctx is done or, if ctx has no deadline, for at
// most QueueWait. A frame it gives up on is dropped and counted, and Send
// returns nil, like a congested link; a done ctx returns ctx.Err().
//
// After every enqueue Send yields the processor, so the flusher and the
// receive loops run while a producer encodes its next frame. A producer
// that outruns the flusher fills the queue and waits; it does not encode
// frames that the kernel would only drop from a receiver's socket buffer.
func (e *UDPEndpoint) Send(ctx context.Context, to string, msg []byte) error {
	m := e.metrics.Load()
	if err := ctx.Err(); err != nil {
		return err
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if 4+len(e.addr)+len(msg) > e.cfg.MTU {
		m.Dropped()
		return fmt.Errorf("%w: %d bytes + sender prefix > mtu %d", ErrFrameTooLarge, len(msg), e.cfg.MTU)
	}
	d, err := e.dest(to)
	if err != nil {
		m.Dropped()
		return err
	}
	buf := e.bufPool.Get().(*[]byte)
	wire := appendSender((*buf)[:0], e.addr, msg)
	*buf = wire
	out := outDatagram{buf: buf, b: wire, plen: len(msg), dest: d}
	select {
	case e.sendq <- out:
		runtime.Gosched()
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
	select {
	case e.sendq <- out:
		runtime.Gosched()
		return nil
	case <-e.done: // endpoint closing: frame lost, like any datagram
	case <-expired: // still full after QueueWait: dropped, like a congested link
	case <-ctx.Done():
		err = ctx.Err()
	}
	e.bufPool.Put(buf)
	m.Dropped()
	return err
}

// appendSender appends the [4B len][sender addr] prefix and the payload.
func appendSender(buf []byte, from string, msg []byte) []byte {
	buf = append(buf, byte(len(from)>>24), byte(len(from)>>16), byte(len(from)>>8), byte(len(from)))
	buf = append(buf, from...)
	return append(buf, msg...)
}

// sendLoop drains the send queue in batches: it blocks for the first
// frame, greedily takes whatever else is immediately queued, and flushes
// the batch with one vectorized syscall.
func (e *UDPEndpoint) sendLoop() {
	defer e.wg.Done()
	batch := make([]outDatagram, 0, e.cfg.BatchSize)
	for {
		select {
		case d := <-e.sendq:
			batch = append(batch[:0], d)
		case <-e.done:
			return
		}
	drain:
		for len(batch) < e.cfg.BatchSize {
			select {
			case d := <-e.sendq:
				batch = append(batch, d)
			default:
				break drain
			}
		}
		e.transmit(batch)
	}
}

// transmit flushes one gathered batch, skipping over per-datagram errors
// (an unreachable peer must not sink the rest of the batch) and recycling
// the pooled buffers.
func (e *UDPEndpoint) transmit(batch []outDatagram) {
	m := e.metrics.Load()
	m.ObserveSendBatch(len(batch))
	rest := batch
	for len(rest) > 0 {
		n, err := e.bio.sendBatch(rest)
		for i := 0; i < n; i++ {
			m.Sent(rest[i].plen)
		}
		if err != nil {
			if n < len(rest) {
				// rest[n] failed (EMSGSIZE, ECONNREFUSED via ICMP, ...):
				// drop it and keep going with the remainder.
				m.Dropped()
				n++
			}
			if n == 0 {
				break
			}
		}
		if n == 0 {
			break
		}
		rest = rest[n:]
	}
	for range rest {
		m.Dropped()
	}
	for i := range batch {
		e.bufPool.Put(batch[i].buf)
	}
}

// recvLoop drains the socket with batched reads. Each datagram lands in
// its own slot buffer, which is handed to the protocol layer as-is — no
// copy — and the slot is re-armed from the receive pool, which released
// frames refill. A datagram that is malformed or dropped on a full queue
// leaves its buffer in the slot.
func (e *UDPEndpoint) recvLoop() {
	defer e.wg.Done()
	bufs := make([][]byte, e.cfg.BatchSize)
	lens := make([]int, e.cfg.BatchSize)
	var senders senderCache
	for {
		for i := range bufs {
			if bufs[i] == nil {
				bufs[i] = e.recvPool.get(e.cfg.MTU)
			}
		}
		n, err := e.bio.recvBatch(bufs, lens)
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient (e.g. ICMP-induced) — keep reading
		}
		m := e.metrics.Load()
		m.ObserveRecvBatch(n)
		for i := 0; i < n; i++ {
			from, payload, err := senders.split(bufs[i][:lens[i]])
			if err != nil {
				m.Dropped() // malformed datagram: ignore, slot is reused
				continue
			}
			select {
			case e.recvq <- Frame{From: from, Msg: payload, buf: bufs[i], pool: &e.recvPool}:
				bufs[i] = nil // the buffer is the receiver's until Release
				m.Received(len(payload))
			case <-e.done:
				return
			default:
				m.Dropped() // receiver not draining: congested-link drop
			}
		}
	}
}

// Recv implements Endpoint: the one-frame case of RecvBatch. The returned
// buffer is the caller's to keep.
func (e *UDPEndpoint) Recv(ctx context.Context) (string, []byte, error) {
	return recvQueuedOne(ctx, e.recvq, e.done)
}

// RecvBatch implements BatchReceiver: it blocks for one datagram, then
// takes whatever else the receive loop has queued. Its frames lie in the
// slot buffers; Release re-arms the slots with them.
func (e *UDPEndpoint) RecvBatch(ctx context.Context, frames []Frame) (int, error) {
	return recvQueued(ctx, e.recvq, e.done, frames)
}

// Close implements Endpoint: it stops both loops and closes the socket.
func (e *UDPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
	err := e.conn.Close()
	e.wg.Wait()
	return err
}
