package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// Dual splits one logical endpoint across two transports: a reliable
// control plane (TCP: hello/goodbye/repair/stats/leases) and a lossy
// datagram data plane (UDP: coded frames, keepalives). The classifier
// decides per outgoing frame; both planes' inbound traffic merges into one
// Recv stream, so the protocol layer is oblivious to the split.
//
// The classifier lives here as a plain func because transport must not
// import protocol (protocol imports transport); protocol exports
// DataPlaneFrame for callers to pass in.
//
// Identity: Addr() is the control endpoint's address, and ListenSamePort
// binds the data socket to the same host:port and stamps that address into
// its sender prefix, so a peer is one address on both planes — no mapping
// handshake, no second address book.
type Dual struct {
	ctrl   Endpoint
	data   Endpoint
	isData func([]byte) bool

	recvq chan Frame
	done  chan struct{}

	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup
}

var (
	_ Endpoint      = (*Dual)(nil)
	_ BatchReceiver = (*Dual)(nil)
)

// NewDual combines a control and a data endpoint. Frames for which isData
// returns true go out on data; everything else on ctrl. Dual owns both
// endpoints: Close closes them.
func NewDual(ctrl, data Endpoint, isData func([]byte) bool) *Dual {
	d := &Dual{
		ctrl:   ctrl,
		data:   data,
		isData: isData,
		recvq:  make(chan Frame, 256),
		done:   make(chan struct{}),
	}
	d.wg.Add(2)
	go d.pump(ctrl)
	go d.pump(data)
	return d
}

// Control and Data expose the underlying planes so callers can instrument
// each with its own metrics kind ("tcp" vs "udp") or wrap the data plane
// in a Faulty for chaos runs. Dual deliberately does not implement
// Instrumentable: one bundle for two planes would defeat the split.
func (d *Dual) Control() Endpoint { return d.ctrl }
func (d *Dual) Data() Endpoint    { return d.data }

// Addr returns the shared (control) address.
func (d *Dual) Addr() string { return d.ctrl.Addr() }

// pump forwards one plane's inbound frames into the merged stream, each
// with its release handle, reading the plane in batches. It exits when the
// inner endpoint reports closure — no context juggling needed, Close
// closes both inners.
func (d *Dual) pump(ep Endpoint) {
	defer d.wg.Done()
	ctx := context.Background()
	rx := Batched(ep)
	var fs [RecvBatchLen]Frame
	for {
		n, err := rx.RecvBatch(ctx, fs[:])
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			select {
			case d.recvq <- fs[i]:
			case <-d.done:
				return
			}
		}
	}
}

// Send routes the frame to the plane the classifier picks.
func (d *Dual) Send(ctx context.Context, to string, msg []byte) error {
	if d.isData(msg) {
		return d.data.Send(ctx, to, msg)
	}
	return d.ctrl.Send(ctx, to, msg)
}

// Recv returns the next frame from either plane: the one-frame case of
// RecvBatch. The returned buffer is the caller's to keep.
func (d *Dual) Recv(ctx context.Context) (string, []byte, error) {
	return recvQueuedOne(ctx, d.recvq, d.done)
}

// RecvBatch implements BatchReceiver over the merged stream: it blocks for
// one frame from either plane, then takes whatever else is queued. Each
// frame's Release recycles it into the plane it came from.
func (d *Dual) RecvBatch(ctx context.Context, frames []Frame) (int, error) {
	return recvQueued(ctx, d.recvq, d.done, frames)
}

// Close closes both planes and waits for the pumps to drain out.
func (d *Dual) Close() error {
	d.closeOnce.Do(func() {
		errCtrl := d.ctrl.Close()
		errData := d.data.Close()
		close(d.done)
		d.wg.Wait()
		d.closeErr = errors.Join(errCtrl, errData)
	})
	return d.closeErr
}

// ListenSamePort binds a TCP listener and a UDP socket on the same
// host:port so the two planes share one address. With an explicit port the
// pairing either works or fails outright; with an ephemeral port (":0")
// the kernel-chosen TCP port may already be taken for UDP by another
// process, so the pairing retries with fresh ports a few times. The UDP
// endpoint advertises the TCP address.
func ListenSamePort(addr string, cfg UDPConfig) (*TCPEndpoint, *UDPEndpoint, error) {
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: listen same port %q: %w", addr, err)
	}
	ephemeral := port == "0" || port == ""
	var lastErr error
	for attempt := 0; attempt < 16; attempt++ {
		tcp, err := ListenTCP(addr)
		if err != nil {
			return nil, nil, err
		}
		ucfg := cfg
		ucfg.Advertise = tcp.Addr()
		udp, err := ListenUDP(tcp.Addr(), ucfg)
		if err == nil {
			return tcp, udp, nil
		}
		tcp.Close()
		lastErr = err
		if !ephemeral {
			break // a fixed port will not change on retry
		}
	}
	return nil, nil, fmt.Errorf("transport: no port with both tcp and udp free: %w", lastErr)
}
