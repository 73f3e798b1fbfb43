package transport

import (
	"context"
	"sync"
)

// Frame is one received message: the sender's address and the message
// bytes. A frame handed out by BatchReceiver.RecvBatch may lie in a buffer
// the endpoint recycles; Release hands that buffer back. Until Release the
// caller owns Msg, and after it the caller must not touch Msg again. A
// frame that is never released stays valid for good and costs the
// endpoint one fresh buffer, which is what Recv's frames cost.
type Frame struct {
	From string
	Msg  []byte

	// buf is the whole recycled buffer Msg lies in, and pool the free list
	// it returns to; pool is nil for a frame no endpoint recycles.
	buf  []byte
	pool *framePool
}

// Release hands the frame's buffer back to the endpoint that filled it
// and clears the frame. It is a no-op on a frame with nothing to recycle,
// and on one already released. Built with -tags ncastpoison, Release first
// overwrites the buffer with PoisonByte, so a reader that kept Msg past
// Release reads garbage and fails loudly.
func (f *Frame) Release() {
	if f.pool != nil {
		poison(f.buf)
		f.pool.put(f.buf)
	}
	*f = Frame{}
}

// ReleaseBatch releases every frame of fs as Release does, taking each
// free list's lock once per run of consecutive frames that return to it
// instead of once per frame. A receive loop calls it on its whole batch
// once no handler reads the frames any more.
func ReleaseBatch(fs []Frame) {
	for i := 0; i < len(fs); {
		p := fs[i].pool
		j := i + 1
		for j < len(fs) && fs[j].pool == p {
			j++
		}
		if p != nil {
			p.putFrames(fs[i:j])
		}
		clear(fs[i:j])
		i = j
	}
}

// poison overwrites b whole with PoisonByte in builds with -tags
// ncastpoison, and is a no-op otherwise.
func poison(b []byte) {
	if poisonReleased {
		b = b[:cap(b)]
		for i := range b {
			b[i] = PoisonByte
		}
	}
}

// PoisonByte is the pattern Release writes over a released buffer in
// builds with -tags ncastpoison.
const PoisonByte = 0xdb

// BatchReceiver is implemented by endpoints that can hand over several
// queued frames per call. RecvBatch blocks for the first frame, fills
// frames[0] and then as many further slots as frames are already queued,
// without blocking, and returns the count; it fails like Recv. A frame it
// returns may lie in a recycled buffer: the caller releases each frame
// when done with it (see Frame). An endpoint has a single reader: Recv
// and RecvBatch must not run concurrently on one endpoint.
type BatchReceiver interface {
	RecvBatch(ctx context.Context, frames []Frame) (int, error)
}

// RecvBatchLen is how many frames a batched reader asks for per call.
const RecvBatchLen = 32

// Batched returns ep's own batch receiver, or else an adapter that fills
// one frame per call through ep.Recv. A wrapper type that embeds Endpoint
// and overrides Recv does not pick up the embedded endpoint's RecvBatch,
// so it gets the adapter and its Recv still sees every frame.
func Batched(ep Endpoint) BatchReceiver {
	if br, ok := ep.(BatchReceiver); ok {
		return br
	}
	return oneFrame{ep}
}

// oneFrame is the one-frame batch receiver over a plain Recv. Its frames
// are caller-owned, so Release has nothing to recycle.
type oneFrame struct{ ep Endpoint }

func (r oneFrame) RecvBatch(ctx context.Context, frames []Frame) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	from, msg, err := r.ep.Recv(ctx)
	if err != nil {
		return 0, err
	}
	frames[0] = Frame{From: from, Msg: msg}
	return 1, nil
}

// recvQueued is RecvBatch over a queue of ready frames: it blocks for the
// first frame on q, then takes whatever else q holds without blocking.
func recvQueued(ctx context.Context, q <-chan Frame, done <-chan struct{}, frames []Frame) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	select {
	case frames[0] = <-q:
	case <-done:
		return 0, ErrClosed
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	n := 1
	for ; n < len(frames); n++ {
		select {
		case frames[n] = <-q:
		default:
			return n, nil
		}
	}
	return n, nil
}

// recvQueuedOne is Recv over a queue of ready frames: the one-frame case
// of recvQueued, whose buffer the caller keeps.
func recvQueuedOne(ctx context.Context, q <-chan Frame, done <-chan struct{}) (string, []byte, error) {
	var fs [1]Frame
	if _, err := recvQueued(ctx, q, done, fs[:]); err != nil {
		return "", nil, err
	}
	return fs[0].From, fs[0].Msg, nil
}

// Frame buffer sizing. A buffer is allocated with its capacity rounded up
// to bufAlign, so frames a few bytes apart in size (a systematic and a
// coded packet of one generation, a keepalive) share buffers; a free list
// keeps at most poolFrames buffers, none larger than maxPooledBuf.
const (
	bufAlign     = 256
	poolFrames   = 1024
	maxPooledBuf = 64 << 10
)

// framePool is an endpoint's free list of receive buffers. Released
// frames refill it and the endpoint's receive path draws on it; when it is
// empty, or its top buffer is too small, get allocates, so a consumer that
// never releases pays one allocation per frame.
type framePool struct {
	mu   sync.Mutex
	free [][]byte
}

// get returns a buffer of length n.
func (p *framePool) get(n int) []byte {
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		p.mu.Unlock()
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this frame: let it go, and allocate one that fits.
	} else {
		p.mu.Unlock()
	}
	return make([]byte, n, (n+bufAlign-1)/bufAlign*bufAlign)
}

// put returns b to the free list, unless the list is full or b too large
// to be worth keeping.
func (p *framePool) put(b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	p.mu.Lock()
	if len(p.free) < poolFrames {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// putFrames poisons and returns the buffers of fs, whose frames all come
// from p, under one lock, as put would one at a time.
func (p *framePool) putFrames(fs []Frame) {
	for i := range fs {
		poison(fs[i].buf)
	}
	p.mu.Lock()
	for i := range fs {
		if b := fs[i].buf; cap(b) <= maxPooledBuf && len(p.free) < poolFrames {
			p.free = append(p.free, b)
		}
	}
	p.mu.Unlock()
}

// senderCache maps the sender-address bytes of a sender-prefixed frame to
// an interned string, so a stream of frames from a few peers allocates no
// string per frame. It holds senderCacheLen entries, replaced round-robin,
// and is owned by one reading goroutine.
type senderCache struct {
	addrs [senderCacheLen]string
	next  int
}

const senderCacheLen = 8

// intern returns b as a string, reusing a cached one that matches.
func (c *senderCache) intern(b []byte) string {
	for _, s := range c.addrs {
		if s == string(b) { // compiled without a conversion allocation
			return s
		}
	}
	s := string(b)
	c.addrs[c.next] = s
	c.next = (c.next + 1) % senderCacheLen
	return s
}
