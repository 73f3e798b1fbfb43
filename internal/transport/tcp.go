package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"ncast/internal/obs"
)

// TCPEndpoint implements Endpoint over TCP: it listens on its own address
// and lazily dials peers, caching one outbound connection per peer. Each
// frame on the wire is [4B addr len][sender addr][payload], inside the
// standard length-prefixed framing, so receivers learn the sender's
// listening address (needed to reply — the tracker addresses nodes by
// their listening address, not their ephemeral dialing port).
type TCPEndpoint struct {
	ln      net.Listener
	addr    string
	recv    chan Frame
	mu      sync.Mutex
	conns   map[string]*Conn
	inbound map[*Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
	done    chan struct{}
	metrics atomic.Pointer[obs.TransportMetrics]
	// pool holds the buffers inbound frames are read into, refilled by
	// Frame.Release.
	pool framePool
}

var (
	_ Endpoint       = (*TCPEndpoint)(nil)
	_ BatchReceiver  = (*TCPEndpoint)(nil)
	_ Instrumentable = (*TCPEndpoint)(nil)
)

// SetMetrics attaches obs counters to the endpoint.
func (e *TCPEndpoint) SetMetrics(m *obs.TransportMetrics) { e.metrics.Store(m) }

// ListenTCP creates an endpoint listening on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	e := &TCPEndpoint{
		ln:      ln,
		addr:    ln.Addr().String(),
		recv:    make(chan Frame, 256),
		conns:   make(map[string]*Conn),
		inbound: make(map[*Conn]struct{}),
		done:    make(chan struct{}),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the listening address.
func (e *TCPEndpoint) Addr() string { return e.addr }

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := NewConn(conn)
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.inbound[c] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

func (e *TCPEndpoint) readLoop(c *Conn) {
	defer e.wg.Done()
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.inbound, c)
		e.mu.Unlock()
	}()
	// The connection's one reader reads each frame into a pooled buffer and
	// interns the sender, which on one connection rarely changes.
	var hdr [4]byte
	var senders senderCache
	for {
		frame, err := readFrame(c.c, &hdr, &e.pool)
		if err != nil {
			return
		}
		from, payload, err := senders.split(frame)
		if err != nil {
			return // malformed peer; drop the connection
		}
		select {
		case e.recv <- Frame{From: from, Msg: payload, buf: frame, pool: &e.pool}:
			e.metrics.Load().Received(len(payload))
		case <-e.done:
			return
		}
	}
}

// splitSender splits a [4B len][sender addr][payload] frame.
func splitSender(frame []byte) (string, []byte, error) {
	n, err := senderLen(frame)
	if err != nil {
		return "", nil, err
	}
	return string(frame[4 : 4+n]), frame[4+n:], nil
}

// split is splitSender with the sender address interned in c.
func (c *senderCache) split(frame []byte) (string, []byte, error) {
	n, err := senderLen(frame)
	if err != nil {
		return "", nil, err
	}
	return c.intern(frame[4 : 4+n]), frame[4+n:], nil
}

// senderLen returns the sender-address length of a sender-prefixed frame.
func senderLen(frame []byte) (int, error) {
	if len(frame) < 4 {
		return 0, errors.New("transport: short sender-prefixed frame")
	}
	n := binary.BigEndian.Uint32(frame)
	// Compare in uint64 space: a peer-controlled length near MaxUint32
	// converted with int(n) goes negative on 32-bit platforms, slips past
	// a signed bounds check, and panics on the slice below.
	if uint64(n) > uint64(len(frame)-4) {
		return 0, errors.New("transport: bad sender length")
	}
	return int(n), nil
}

// Send implements Endpoint. It dials the peer on first use and reuses the
// connection afterwards; a send error invalidates the cached connection so
// the next send redials. The dial and the write each wait until ctx is
// done or, if ctx has no deadline, at most QueueWait.
func (e *TCPEndpoint) Send(ctx context.Context, to string, msg []byte) error {
	m := e.metrics.Load()
	conn, err := e.conn(ctx, to)
	if err != nil {
		m.Dropped()
		return err
	}
	if err := conn.sendFrom(ctx, e.addr, msg); err != nil {
		e.dropConn(to, conn)
		m.Dropped()
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	m.Sent(len(msg))
	return nil
}

func (e *TCPEndpoint) conn(ctx context.Context, to string) (*Conn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	// A dial is bounded like a write: by ctx's deadline, or QueueWait when
	// it has none, so a peer that drops SYNs cannot hold a data-plane
	// sender for the OS connect timeout.
	var d net.Dialer
	if _, ok := ctx.Deadline(); !ok {
		d.Timeout = QueueWait
	}
	raw, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", to, err)
	}
	c := NewConn(raw)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		c.Close()
		return nil, ErrClosed
	}
	if existing, ok := e.conns[to]; ok {
		c.Close() // lost the race; reuse the winner
		return existing, nil
	}
	e.conns[to] = c
	return c, nil
}

func (e *TCPEndpoint) dropConn(to string, c *Conn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
	c.Close()
}

// Recv implements Endpoint: the one-frame case of RecvBatch. The returned
// buffer is the caller's to keep.
func (e *TCPEndpoint) Recv(ctx context.Context) (string, []byte, error) {
	return recvQueuedOne(ctx, e.recv, e.done)
}

// RecvBatch implements BatchReceiver: it blocks for one frame from any
// connection, then takes whatever else the readers have queued. Its
// frames lie in the endpoint's pool; Release recycles them.
func (e *TCPEndpoint) RecvBatch(ctx context.Context, frames []Frame) (int, error) {
	return recvQueued(ctx, e.recv, e.done, frames)
}

// Close implements Endpoint: it stops the listener, closes cached
// connections, and waits for reader goroutines to exit.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = map[string]*Conn{}
	// Close accepted connections too: their readLoops block in Recv and
	// would otherwise stall the WaitGroup below forever.
	for c := range e.inbound {
		c.Close()
	}
	e.mu.Unlock()
	err := e.ln.Close()
	e.wg.Wait()
	return err
}
