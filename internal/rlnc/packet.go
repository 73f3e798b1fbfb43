// Package rlnc implements practical randomized linear network coding in
// the style of Chou, Wu, and Jain ("Practical network coding", Allerton
// 2003), the data plane the paper builds on. Content is segmented into
// generations of h source packets; every coded packet carries, alongside
// its payload, the h-element coefficient vector expressing it as a linear
// combination of the generation's source packets. Because the coefficients
// travel with the packet, any node can re-code (emit fresh random
// combinations of what it has buffered) with no coordination, and decoding
// survives topology changes and failures — the property §1 of the paper
// relies on.
//
// The package provides:
//
//   - Encoder: produces coded packets from a generation's source data.
//   - Decoder: progressive Gaussian elimination; recovers the generation
//     once h linearly independent packets have arrived.
//   - Recoder: buffers innovative packets and emits fresh random
//     combinations — the operation performed by every overlay node.
//   - FileEncoder / FileDecoder: multi-generation framing for whole blobs;
//     ParallelFileDecoder shards the generations over a worker pool.
//
// Every type that absorbs packets runs the same elimination engine
// (engine.go); Decoder and Recoder are that engine behind a mutex and
// differ only in that a Recoder can also emit.
package rlnc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ncast/internal/gf"
)

// ErrPacketFormat is returned when unmarshalling a malformed packet.
var ErrPacketFormat = errors.New("rlnc: malformed packet")

// Packet is one coded packet: a linear combination of the source packets
// of one generation, tagged with the combination's coefficients.
type Packet struct {
	// Gen identifies the generation this packet belongs to.
	Gen uint32
	// Coeff holds the h coefficients of the combination, one per source
	// packet of the generation, in the field's symbol layout: SymbolSize
	// bytes each, so a 0/1 byte over GF(2), one byte over GF(2^8) and a
	// little-endian uint16 over GF(2^16). The coefficients thus go through
	// the same slice kernels as the payload. Systematic packets carry the
	// unit vector for SysIdx here so every in-memory consumer sees an
	// ordinary coded packet.
	Coeff []byte
	// Payload is the combined data, len = generation symbol size.
	Payload []byte
	// Sys marks a systematic packet: Payload is source packet SysIdx
	// verbatim and Coeff is its unit vector. The zero value means coded,
	// so packets built by struct literal keep their prior meaning. On the
	// wire a systematic packet replaces the coefficient vector with a
	// 2-byte source index (see AppendTo), and decoders use the flag to
	// skip elimination entirely.
	Sys bool
	// SysIdx is the source-packet index of a systematic packet;
	// meaningless unless Sys is set.
	SysIdx uint16

	// row is a pooled packet's one buffer, Payload‖Coeff‖zero pad, laid
	// out like an engine row (rowStride) so that a recode step is one
	// kernel call over it. Nil on hand-built packets.
	row []byte
}

// coeffAt returns coefficient j of a vector in f's symbol layout.
func coeffAt(f gf.Field, v []byte, j int) uint16 {
	if f.SymbolSize() == 2 {
		return binary.LittleEndian.Uint16(v[2*j:])
	}
	return uint16(v[j])
}

// setCoeff stores c as coefficient j of a vector in f's symbol layout.
func setCoeff(f gf.Field, v []byte, j int, c uint16) {
	if f.SymbolSize() == 2 {
		binary.LittleEndian.PutUint16(v[2*j:], c)
	} else {
		v[j] = byte(c)
	}
}

// Clone returns a deep copy of the packet.
func (p *Packet) Clone() *Packet {
	return &Packet{
		Gen:     p.Gen,
		Coeff:   append([]byte(nil), p.Coeff...),
		Payload: append([]byte(nil), p.Payload...),
		Sys:     p.Sys,
		SysIdx:  p.SysIdx,
	}
}

// ClonePooled returns a deep copy drawn from the shared packet pool —
// the copy to hand to an ownership-taking sink (ParallelFileDecoder.Add)
// when the original must stay usable. Release applies as usual.
func (p *Packet) ClonePooled() *Packet {
	q := getPacket(p.Gen, len(p.Coeff), len(p.Payload))
	copy(q.Coeff, p.Coeff)
	copy(q.Payload, p.Payload)
	q.Sys, q.SysIdx = p.Sys, p.SysIdx
	return q
}

// packetHeaderLen is the fixed wire header: 4B generation, 2B coefficient
// count, 4B payload length.
const packetHeaderLen = 4 + 2 + 4

// sysFlag is set in the payload-length header word of a systematic
// packet. Payload lengths are far below 2^31, so the bit is otherwise
// always zero and pre-flag decoders were never sent it: coded-packet
// encodings are byte-for-byte unchanged.
const sysFlag = 1 << 31

// sysIdxWireLen replaces the coefficient vector on the wire for
// systematic packets: a 2-byte big-endian source index.
const sysIdxWireLen = 2

// WireSize returns the marshalled size of the packet over field f.
func (p *Packet) WireSize(f gf.Field) int {
	if p.Sys {
		return packetHeaderLen + sysIdxWireLen + len(p.Payload)
	}
	return packetHeaderLen + coeffWireLen(f, len(p.Coeff)/f.SymbolSize()) + len(p.Payload)
}

// coeffWireLen returns the encoded byte length of an n-element coefficient
// vector over f: bit-packed for GF(2), 1 byte/elem for GF(2^8), 2 for
// GF(2^16).
func coeffWireLen(f gf.Field, n int) int {
	switch f.Bits() {
	case 1:
		return (n + 7) / 8
	case 8:
		return n
	default:
		return 2 * n
	}
}

// AppendTo appends the wire encoding of the packet to buf and returns the
// extended slice, exactly like append: it allocates only when buf lacks
// capacity for WireSize(f) more bytes. The send path pairs it with the
// pooled buffers from GetFrameBuf for an allocation-free steady state.
func (p *Packet) AppendTo(buf []byte, f gf.Field) []byte {
	var hdr [packetHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], p.Gen)
	binary.BigEndian.PutUint16(hdr[4:], uint16(len(p.Coeff)/f.SymbolSize()))
	plen := uint32(len(p.Payload))
	if p.Sys {
		plen |= sysFlag
	}
	binary.BigEndian.PutUint32(hdr[6:], plen)
	buf = append(buf, hdr[:]...)
	if p.Sys {
		buf = append(buf, byte(p.SysIdx>>8), byte(p.SysIdx))
		return append(buf, p.Payload...)
	}
	switch f.Bits() {
	case 1:
		var acc byte
		for i, c := range p.Coeff {
			if c&1 != 0 {
				acc |= 1 << (i % 8)
			}
			if i%8 == 7 {
				buf = append(buf, acc)
				acc = 0
			}
		}
		if len(p.Coeff)%8 != 0 {
			buf = append(buf, acc)
		}
	case 8:
		buf = append(buf, p.Coeff...)
	default:
		// Little-endian in memory, big-endian on the wire.
		for i := 0; i+1 < len(p.Coeff); i += 2 {
			buf = append(buf, p.Coeff[i+1], p.Coeff[i])
		}
	}
	return append(buf, p.Payload...)
}

// Marshal encodes the packet for the wire into a fresh buffer. The field
// is implicit: both ends of a session agree on it out of band (it is part
// of the session parameters in the protocol layer).
func (p *Packet) Marshal(f gf.Field) []byte {
	return p.AppendTo(make([]byte, 0, p.WireSize(f)), f)
}

// Unmarshal decodes a packet produced by Marshal/AppendTo over the same
// field. The returned packet comes from the shared packet pool and does
// not alias data; pass it back with Release when done.
func Unmarshal(f gf.Field, data []byte) (*Packet, error) {
	if len(data) < packetHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, need header of %d", ErrPacketFormat, len(data), packetHeaderLen)
	}
	gen := binary.BigEndian.Uint32(data[0:])
	n := int(binary.BigEndian.Uint16(data[4:]))
	plenWord := binary.BigEndian.Uint32(data[6:])
	plen := int(plenWord &^ sysFlag)
	if plenWord&sysFlag != 0 {
		if len(data) != packetHeaderLen+sysIdxWireLen+plen {
			return nil, fmt.Errorf("%w: length %d, want %d", ErrPacketFormat, len(data), packetHeaderLen+sysIdxWireLen+plen)
		}
		idx := binary.BigEndian.Uint16(data[packetHeaderLen:])
		if int(idx) >= n {
			return nil, fmt.Errorf("%w: systematic index %d out of range for %d coefficients", ErrPacketFormat, idx, n)
		}
		p := getPacket(gen, n*f.SymbolSize(), plen)
		p.Sys, p.SysIdx = true, idx
		setCoeff(f, p.Coeff, int(idx), 1)
		copy(p.Payload, data[packetHeaderLen+sysIdxWireLen:])
		return p, nil
	}
	clen := coeffWireLen(f, n)
	if len(data) != packetHeaderLen+clen+plen {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrPacketFormat, len(data), packetHeaderLen+clen+plen)
	}
	p := getPacket(gen, n*f.SymbolSize(), plen)
	coeff := p.Coeff
	cdata := data[packetHeaderLen : packetHeaderLen+clen]
	switch f.Bits() {
	case 1:
		for i := range coeff {
			coeff[i] = cdata[i/8] >> (i % 8) & 1
		}
	case 8:
		copy(coeff, cdata)
	default:
		for i := 0; i+1 < len(coeff); i += 2 {
			coeff[i], coeff[i+1] = cdata[i+1], cdata[i]
		}
	}
	copy(p.Payload, data[packetHeaderLen+clen:])
	return p, nil
}

// OverheadBytes returns the per-packet byte overhead (header plus
// coefficient vector) a generation of size h pays over field f — the
// practicality metric of experiment E12.
func OverheadBytes(f gf.Field, h int) int {
	return packetHeaderLen + coeffWireLen(f, h)
}
