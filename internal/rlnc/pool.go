package rlnc

import "sync"

// The data plane recycles Packet objects through a sync.Pool so that the
// steady-state emit paths (Encoder.Packet, Recoder.Packet) and the wire
// decode path (Unmarshal) allocate nothing once warm. The pool stores
// *Packet — its one backing row (Payload‖Coeff‖pad, see rowStride)
// travels with the struct and is resliced, so a Get after a same-shaped
// Put reuses it.
//
// Ownership rule: a packet obtained from any of those constructors is
// owned by the caller; calling Release returns it (and its buffers) to
// the pool. Release is strictly optional — an un-released packet is
// ordinary garbage — but a released packet must not be touched again.
// Codec Add methods copy out of the packet, so it is safe to Release
// immediately after Add returns.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// rowStride is the length of one coded row holding a size-byte payload
// and clen bytes of coefficients: payload first, then coefficients, then
// zero padding to a multiple of 32 bytes. Every row in an engine arena
// and every pooled packet starts 32-byte aligned relative to its buffer,
// so the vector kernels run on whole rows without a misaligned tail.
func rowStride(clen, size int) int { return (size + clen + 31) &^ 31 }

// getPacket returns a pooled packet shaped for generation gen with clen
// bytes of coefficients and a size-byte payload, both views of one zeroed
// row so callers can accumulate into it directly.
func getPacket(gen uint32, clen, size int) *Packet {
	p := packetPool.Get().(*Packet)
	p.Gen = gen
	p.Sys, p.SysIdx = false, 0
	n := rowStride(clen, size)
	if cap(p.row) >= n {
		p.row = p.row[:n]
		clear(p.row)
	} else {
		p.row = make([]byte, n)
	}
	p.Payload = p.row[:size:size]
	p.Coeff = p.row[size : size+clen : size+clen]
	return p
}

// Release returns the packet and its buffers to the shared packet pool.
// It is safe on nil. After Release the packet must not be used; in
// particular, slices previously returned by aliasing accessors are dead.
func (p *Packet) Release() {
	if p == nil {
		return
	}
	packetPool.Put(p)
}

// frameBufPool recycles wire-encoding scratch ([]byte accumulated via
// AppendTo). Stored as *[]byte to keep Put/Get allocation-free.
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// GetFrameBuf returns a zero-length byte buffer from the wire-frame pool.
// Append to it freely; return it with PutFrameBuf when the encoded bytes
// are no longer referenced.
func GetFrameBuf() *[]byte {
	b := frameBufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutFrameBuf returns a buffer obtained from GetFrameBuf to the pool.
func PutFrameBuf(b *[]byte) {
	if b != nil {
		frameBufPool.Put(b)
	}
}
