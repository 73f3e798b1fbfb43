//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"syscall"
	"unsafe"
)

// Batched datagram I/O via raw sendmmsg(2)/recvmmsg(2). The module has no
// dependency on golang.org/x/net, so the vectorized syscalls are invoked
// directly; MSG_DONTWAIT inside syscall.RawConn.Read/Write callbacks keeps
// the socket integrated with the runtime netpoller (returning false from
// the callback parks the goroutine until the socket is ready, exactly like
// a blocking net.UDPConn read — no spinning).
//
// The build is gated to 64-bit Linux: the mmsghdr layout below assumes
// 8-byte alignment of syscall.Msghdr, and SYS_SENDMMSG/SYS_RECVMMSG exist
// in the stdlib syscall tables for amd64 and arm64. Everything else falls
// back to mmsg_portable.go with identical semantics, one syscall per
// datagram.

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// per-message byte count, padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

type mmsgIO struct {
	rc syscall.RawConn
	// v6 records the socket family: a dual-stack AF_INET6 socket needs
	// IPv4 destinations rewritten as v4-mapped IPv6 sockaddrs.
	v6 bool

	// Scratch arrays sized to the batch, reused across calls. Each loop
	// owns its direction (one sender goroutine, one receiver goroutine),
	// so no locking is needed.
	sendHdrs []mmsghdr
	sendIovs []syscall.Iovec
	recvHdrs []mmsghdr
	recvIovs []syscall.Iovec

	// The RawConn callbacks are bound once, and pass their count in and
	// their result out through these fields, so a batch allocates no
	// closure.
	sendFn, recvFn   func(fd uintptr) bool
	sendN, sent      int
	recvN, got       int
	sendErr, recvErr error
}

func newBatchIO(conn *net.UDPConn, batch int) (udpBatchIO, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	la, _ := conn.LocalAddr().(*net.UDPAddr)
	io := &mmsgIO{
		rc:       rc,
		v6:       la != nil && la.IP.To4() == nil,
		sendHdrs: make([]mmsghdr, batch),
		sendIovs: make([]syscall.Iovec, batch),
		recvHdrs: make([]mmsghdr, batch),
		recvIovs: make([]syscall.Iovec, batch),
	}
	io.sendFn, io.recvFn = io.sendmmsg, io.recvmmsg
	return io, nil
}

// destSockaddr builds the raw sockaddr bytes for ua once, at peer-cache
// time, so the send hot path only installs a pointer.
func (io *mmsgIO) destSockaddr(ua *net.UDPAddr) ([]byte, error) {
	if v4 := ua.IP.To4(); v4 != nil && !io.v6 {
		var sa syscall.RawSockaddrInet4
		sa.Family = syscall.AF_INET
		sa.Port = htons(ua.Port)
		copy(sa.Addr[:], v4)
		return append([]byte(nil), (*(*[syscall.SizeofSockaddrInet4]byte)(unsafe.Pointer(&sa)))[:]...), nil
	}
	var sa syscall.RawSockaddrInet6
	sa.Family = syscall.AF_INET6
	sa.Port = htons(ua.Port)
	ip := ua.IP.To16() // v4 destinations become v4-mapped for the v6 socket
	if ip == nil {
		return nil, ErrUnknownPeer
	}
	copy(sa.Addr[:], ip)
	return append([]byte(nil), (*(*[syscall.SizeofSockaddrInet6]byte)(unsafe.Pointer(&sa)))[:]...), nil
}

// htons converts a port to network byte order.
func htons(p int) uint16 { return uint16(p)<<8 | uint16(p)>>8 }

// sendBatch transmits up to len(batch) datagrams with one sendmmsg call.
func (io *mmsgIO) sendBatch(batch []outDatagram) (int, error) {
	n := len(batch)
	if n > len(io.sendHdrs) {
		n = len(io.sendHdrs)
	}
	for i := 0; i < n; i++ {
		b := batch[i].b
		io.sendIovs[i].Base = &b[0]
		io.sendIovs[i].SetLen(len(b))
		h := &io.sendHdrs[i]
		h.hdr = syscall.Msghdr{}
		sa := batch[i].dest.sa
		h.hdr.Name = &sa[0]
		h.hdr.Namelen = uint32(len(sa))
		h.hdr.Iov = &io.sendIovs[i]
		h.hdr.Iovlen = 1
		h.len = 0
	}
	io.sendN, io.sent, io.sendErr = n, 0, nil
	if err := io.rc.Write(io.sendFn); err != nil {
		return io.sent, err
	}
	return io.sent, io.sendErr
}

// sendmmsg is the RawConn write callback of sendBatch.
func (io *mmsgIO) sendmmsg(fd uintptr) bool {
	r, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&io.sendHdrs[0])), uintptr(io.sendN),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno == syscall.EAGAIN {
		return false // socket buffer full: park on the netpoller
	}
	if errno != 0 {
		io.sendErr = errno // errno implies zero datagrams sent (batch[0] failed)
		return true
	}
	io.sent = int(r)
	return true
}

// recvBatch blocks for at least one datagram, then drains up to
// len(io.recvHdrs) with one recvmmsg call. Sender sockaddrs are not
// collected (msg_name stays nil): the overlay learns the peer's canonical
// address from the in-datagram sender prefix instead.
func (io *mmsgIO) recvBatch(bufs [][]byte, lens []int) (int, error) {
	n := len(bufs)
	if n > len(io.recvHdrs) {
		n = len(io.recvHdrs)
	}
	for i := 0; i < n; i++ {
		io.recvIovs[i].Base = &bufs[i][0]
		io.recvIovs[i].SetLen(len(bufs[i]))
		h := &io.recvHdrs[i]
		h.hdr = syscall.Msghdr{}
		h.hdr.Iov = &io.recvIovs[i]
		h.hdr.Iovlen = 1
		h.len = 0
	}
	io.recvN, io.got, io.recvErr = n, 0, nil
	if err := io.rc.Read(io.recvFn); err != nil {
		return 0, err
	}
	if io.recvErr != nil {
		return 0, io.recvErr
	}
	for i := 0; i < io.got; i++ {
		lens[i] = int(io.recvHdrs[i].len)
	}
	return io.got, nil
}

// recvmmsg is the RawConn read callback of recvBatch.
func (io *mmsgIO) recvmmsg(fd uintptr) bool {
	r, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&io.recvHdrs[0])), uintptr(io.recvN),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno == syscall.EAGAIN {
		return false // nothing queued: park on the netpoller
	}
	if errno != 0 {
		io.recvErr = errno
		return true
	}
	io.got = int(r)
	return true
}
