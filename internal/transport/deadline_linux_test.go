//go:build linux

package transport

import (
	"context"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestSendDeadlineTCPDial: with no deadline on the context, a TCP send
// whose dial never completes gives up within QueueWait instead of waiting
// out the OS connect timeout (about two minutes on Linux), which would
// hold a node's receive loop, and Run's return, for that long.
func TestSendDeadlineTCPDial(t *testing.T) {
	t.Parallel()
	addr := silentListener(t)
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	took, err := timedSend(t, 10*time.Second, func() error {
		return ep.Send(context.Background(), addr, []byte("hello"))
	})
	if err == nil {
		t.Fatal("send over a dial that never completes returned nil")
	}
	if took > QueueWait+time.Second {
		t.Fatalf("send took %v, want at most QueueWait (%v) plus slack", took, QueueWait)
	}
}

// silentListener returns the address of a listener that never accepts and
// whose accept queue is full, so the kernel drops further SYNs and a new
// connect hangs in SYN retransmission.
func silentListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	// Listening again on a listening socket only resets its backlog; 0
	// leaves room for a single queued connection.
	raw, err := ln.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var lerr error
	if err := raw.Control(func(fd uintptr) { lerr = syscall.Listen(int(fd), 0) }); err != nil || lerr != nil {
		t.Fatalf("shrink backlog: %v, %v", err, lerr)
	}
	addr := ln.Addr().String()
	for i := 0; i < 8; i++ {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return addr // this connect hung: the queue is full
		}
		t.Cleanup(func() { c.Close() })
	}
	t.Skip("the kernel kept completing connects into a backlog of 0")
	return ""
}
