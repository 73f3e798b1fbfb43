// Package protocol implements the paper's §3 control protocol — hello,
// good-bye, complaint, and repair — plus the network-coded data plane,
// over any transport.Endpoint. The Tracker is the paper's "server (or some
// other centralized authority)": it owns the curtain matrix M, assigns
// threads to joining nodes, and issues stream redirections when nodes
// join, leave, or fail. Node is the client: it receives unit streams from
// its parents, re-mixes them with RLNC, forwards on its own threads, and
// decodes the content.
package protocol

import (
	"encoding/binary"
	"fmt"

	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/rlnc"
)

// MsgType tags control messages.
type MsgType uint8

// Control message types. Values are wire format; do not reorder.
const (
	// MsgHello is node -> tracker: request to join with a degree.
	MsgHello MsgType = iota + 1
	// MsgWelcome is tracker -> node: assigned identity and session params.
	MsgWelcome
	// MsgGoodbye is node -> tracker: graceful leave announcement.
	MsgGoodbye
	// MsgGoodbyeAck is tracker -> node: leave processed, streams spliced.
	MsgGoodbyeAck
	// MsgComplaint is child -> tracker: a parent stopped sending.
	MsgComplaint
	// MsgRedirect is tracker -> node: route your thread to a new child.
	MsgRedirect
	// MsgComplete is node -> tracker: content fully decoded.
	MsgComplete
	// MsgError is tracker -> node: request rejected.
	MsgError
	// MsgExpelled is tracker -> node: you were repaired away (a child
	// complained and the tracker believed it); re-join if still alive.
	MsgExpelled
	// MsgCongested is node -> tracker: §5 congestion relief — join one of
	// my parents directly to the matching child and drop my degree by one.
	MsgCongested
	// MsgUncongested is node -> tracker: congestion cleared — turn one of
	// the zeroes in my row back into a one.
	MsgUncongested
	// MsgThreadDropped is tracker -> node: your degree reduction took
	// effect on this thread; stop expecting or forwarding data on it.
	MsgThreadDropped
	// MsgThreadAdded is tracker -> node: you gained this thread; expect
	// data from a new parent and forward to ChildAddr when non-empty.
	MsgThreadAdded
	// MsgLease is node -> tracker: periodic liveness renewal. A crashed
	// bottom clip (a node with no children) is never complained about, so
	// the tracker expires rows whose leases go silent instead of waiting
	// for a complaint that can never come.
	MsgLease
	// MsgStatsReport is node -> tracker: a compact periodic telemetry
	// report (rank vector, decode-delay quantiles, flow counters) the
	// tracker aggregates into the fleet-wide cluster view. At most one is
	// sent per node per reporting interval.
	MsgStatsReport
)

// frame kind bytes: a data frame, a control message (layout in
// control.go), or a per-thread keepalive.
const (
	frameData      byte = 0
	frameControl   byte = 1
	frameKeepalive byte = 2
)

// tracedFlag marks a data frame whose header carries a dissemination-trace
// context after the emission stamp. It lives in the top bit of the thread
// word; threads are bounded far below 2^15 (the same spare-bit trick the
// systematic flag uses in the rlnc length word).
const tracedFlag uint16 = 1 << 15

// Data-frame header sizes: kind, thread word, 3-byte sequence number and
// 8-byte emission stamp; a traced frame adds an 8-byte trace ID and the
// hop count.
const (
	dataFrameHeaderLen = 1 + 2 + 3 + 8
	traceContextLen    = 8 + 1
)

// SeqMod is the sequence-number space of the per-(sender, thread)
// counter every data frame carries.
const SeqMod = obs.SeqMod

// TraceContext is the dissemination-trace context a traced data frame
// carries: the trace ID the source assigned to the sampled generation and
// the hop count — the overlay depth of the sender, so a receiver learns
// its own depth directly from the frame. The zero value means untraced.
type TraceContext struct {
	ID  uint64
	Hop uint8
}

// Traced reports whether the context marks a sampled generation.
func (tc TraceContext) Traced() bool { return tc.ID != 0 }

// Hello asks to join the session.
type Hello struct {
	// Addr is the node's transport address (where parents send streams).
	Addr string `json:"addr"`
	// Degree is the requested d; 0 means the session default.
	Degree int `json:"degree,omitempty"`
}

// SessionParams describes the coded content; all nodes must agree.
type SessionParams struct {
	// FieldBits is the coding field size in bits (1, 8, or 16).
	FieldBits int `json:"field_bits"`
	// GenSize is packets per generation.
	GenSize int `json:"gen_size"`
	// PacketSize is the payload bytes per packet.
	PacketSize int `json:"packet_size"`
	// ContentLen is the total content length in bytes.
	ContentLen int `json:"content_len"`
	// LayerSizes, when non-empty, marks a §5 priority-layered broadcast:
	// the content is the concatenation of these layer slabs, each coded
	// independently with the generation namespace of rlnc.LayerOf.
	LayerSizes []int `json:"layer_sizes,omitempty"`
}

// Layered reports whether the session uses priority layers.
func (p SessionParams) Layered() bool { return len(p.LayerSizes) > 0 }

// Field resolves the gf.Field for the parameter set.
func (p SessionParams) Field() (gf.Field, error) {
	switch p.FieldBits {
	case 1:
		return gf.F2, nil
	case 8:
		return gf.F256, nil
	case 16:
		return gf.F65536, nil
	default:
		return nil, fmt.Errorf("protocol: unsupported field bits %d", p.FieldBits)
	}
}

// Params builds the rlnc.Params for the session.
func (p SessionParams) Params() (rlnc.Params, error) {
	f, err := p.Field()
	if err != nil {
		return rlnc.Params{}, err
	}
	params := rlnc.Params{Field: f, GenSize: p.GenSize, PacketSize: p.PacketSize}
	if err := params.Validate(); err != nil {
		return rlnc.Params{}, err
	}
	return params, nil
}

// Welcome confirms a join.
type Welcome struct {
	ID      uint64        `json:"id"`
	K       int           `json:"k"`
	Degree  int           `json:"degree"`
	Session SessionParams `json:"session"`
	// Threads lists the thread indices assigned to the node.
	Threads []int `json:"threads"`
	// LeaseMillis, when positive, asks the node to renew its liveness
	// lease at this interval; 0 means the tracker runs no lease sweep.
	LeaseMillis int64 `json:"lease_ms,omitempty"`
	// StatsMillis, when positive, asks the node to send a MsgStatsReport
	// at this interval; 0 disables telemetry reporting.
	StatsMillis int64 `json:"stats_ms,omitempty"`
}

// Goodbye announces a graceful leave.
type Goodbye struct {
	ID uint64 `json:"id"`
}

// GoodbyeAck confirms the leave was spliced.
type GoodbyeAck struct{}

// Complaint reports a silent parent on a thread.
type Complaint struct {
	ID     uint64 `json:"id"`
	Thread int    `json:"thread"`
	// ParentAddr is the address the child was receiving from.
	ParentAddr string `json:"parent_addr"`
}

// Redirect instructs a node (or informs the server source) to start
// sending its stream on Thread to ChildAddr; an empty ChildAddr means the
// thread now hangs (stop sending).
type Redirect struct {
	Thread    int    `json:"thread"`
	ChildAddr string `json:"child_addr"`
}

// Complete reports a fully decoded download.
type Complete struct {
	ID uint64 `json:"id"`
}

// ErrorMsg rejects a request.
type ErrorMsg struct {
	Reason string `json:"reason"`
}

// Expelled informs a node it was removed by the repair procedure.
type Expelled struct {
	ID uint64 `json:"id"`
}

// Congested asks for §5 degree reduction; Uncongested for regrowth.
type Congested struct {
	ID uint64 `json:"id"`
}

// Uncongested asks to regrow a previously reduced degree.
type Uncongested struct {
	ID uint64 `json:"id"`
}

// Lease renews a node's liveness lease with the tracker.
type Lease struct {
	ID uint64 `json:"id"`
}

// StatsReport is one node's periodic telemetry: decode progress, the
// per-generation rank vector, flow counters, and decode-delay quantiles.
// It rides the existing control connection (one message per interval) and
// doubles as a lease renewal, since any control message refreshes the
// sender's liveness.
type StatsReport struct {
	ID      uint64 `json:"id"`
	Rank    int    `json:"rank"`
	MaxRank int    `json:"max_rank"`
	// GenRanks is the per-generation decoded rank, aligned with the
	// session's canonical generation order (sessionGenIDs).
	GenRanks  []int `json:"gen_ranks,omitempty"`
	GensDone  int   `json:"gens_done"`
	TotalGens int   `json:"total_gens"`
	Complete  bool  `json:"complete"`

	// Received counts the frames of session generations that got a
	// verdict, innovative or redundant, or were dropped before one (by a
	// saturated decode worker); a frame still queued for a decode worker
	// is not counted yet, so Received = Innovative + Redundant + drops.
	Received   uint64 `json:"received"`
	Innovative uint64 `json:"innovative"`
	Redundant  uint64 `json:"redundant"`
	Complaints uint64 `json:"complaints"`
	// LeaseRenewals counts lease messages sent; QueueDepth is the pending
	// decode-queue depth at report time.
	LeaseRenewals uint64 `json:"lease_renewals"`
	QueueDepth    int    `json:"queue_depth"`

	// End-to-end decode-delay quantiles over decoded generations, in
	// nanoseconds (0 until the first stamped generation decodes), and mean
	// coding overhead in permille (received/needed × 1000).
	DelayP50Nanos    int64 `json:"delay_p50_ns,omitempty"`
	DelayP90Nanos    int64 `json:"delay_p90_ns,omitempty"`
	DelayP99Nanos    int64 `json:"delay_p99_ns,omitempty"`
	OverheadPermille int   `json:"overhead_permille,omitempty"`

	// TraceHops are the node's dissemination-trace hop cells recorded
	// since the previous report (present only when trace sampling is on
	// and traced frames arrived); the tracker's TraceCollector assembles
	// them into per-generation dissemination trees.
	TraceHops []obs.TraceHop `json:"trace_hops,omitempty"`

	// Links are the node's per-peer link scorecards (loss from sequence
	// gaps, RTT/jitter EWMAs, innovation rate); the tracker keeps them
	// with the report, and obs.AssembleLinks turns the held reports into
	// the fleet link matrix served at /debug/links.
	Links []obs.LinkReport `json:"links,omitempty"`
}

// ThreadDropped confirms a degree reduction.
type ThreadDropped struct {
	Thread int `json:"thread"`
}

// ThreadAdded confirms a degree increase; ChildAddr is the downstream
// receiver on the new thread ("" when the node is the bottom clip).
type ThreadAdded struct {
	Thread    int    `json:"thread"`
	ChildAddr string `json:"child_addr,omitempty"`
}

// AppendDataSeq appends a data frame — one coded packet traveling on a
// thread — to buf and returns the extended slice. Every data frame has
// one layout:
//
//	[kind 0][thread u16, top bit = traced][seq u24][emit stamp u64]
//	[trace id u64][hop u8]   (traced frames only)
//	[coded packet]
//
// seq is the per-(sender, thread) sequence number (its low 24 bits), from
// which receivers estimate per-peer loss, reordering and duplication.
// emitNanos is the source's first-emission time for the packet's
// generation (unix nanoseconds), so every receiver, however many overlay
// hops away, can measure true end-to-end decode delay; 0 when unknown. A
// traced context adds the trace ID and hop count.
//
// With a buffer from rlnc.GetFrameBuf the steady-state send path encodes
// without allocating: both transports copy the frame during Send, so the
// buffer can go back to the pool as soon as Send returns.
func AppendDataSeq(buf []byte, f gf.Field, thread int, seq int32, emitNanos int64, tc TraceContext, p *rlnc.Packet) []byte {
	tw := uint16(thread)
	if tc.Traced() {
		tw |= tracedFlag
	}
	buf = append(buf, frameData, byte(tw>>8), byte(tw), byte(seq>>16), byte(seq>>8), byte(seq))
	buf = binary.BigEndian.AppendUint64(buf, uint64(emitNanos))
	if tc.Traced() {
		buf = binary.BigEndian.AppendUint64(buf, tc.ID)
		buf = append(buf, tc.Hop)
	}
	return p.AppendTo(buf, f)
}

// EncodeDataSeq marshals a data frame (see AppendDataSeq) into a fresh
// buffer.
func EncodeDataSeq(f gf.Field, thread int, seq int32, emitNanos int64, tc TraceContext, p *rlnc.Packet) []byte {
	return AppendDataSeq(make([]byte, 0, dataFrameHeaderMax+p.WireSize(f)), f, thread, seq, emitNanos, tc, p)
}

// DecodeDataSeq unmarshals a data frame (layout at AppendDataSeq),
// returning the trace context for traced frames (zero otherwise). A
// truncated header or a traced frame with a zero trace ID is an error.
func DecodeDataSeq(f gf.Field, frame []byte) (thread int, seq int32, emitNanos int64, tc TraceContext, p *rlnc.Packet, err error) {
	if !IsData(frame) {
		return 0, 0, 0, TraceContext{}, nil, fmt.Errorf("protocol: not a data frame")
	}
	if len(frame) < dataFrameHeaderLen {
		return 0, 0, 0, TraceContext{}, nil, fmt.Errorf("protocol: data frame truncated")
	}
	tw := binary.BigEndian.Uint16(frame[1:3])
	thread = int(tw &^ tracedFlag)
	seq = int32(frame[3])<<16 | int32(frame[4])<<8 | int32(frame[5])
	emitNanos = int64(binary.BigEndian.Uint64(frame[6:dataFrameHeaderLen]))
	body := frame[dataFrameHeaderLen:]
	if tw&tracedFlag != 0 {
		if len(body) < traceContextLen {
			return 0, 0, 0, TraceContext{}, nil, fmt.Errorf("protocol: traced data frame truncated")
		}
		tc.ID = binary.BigEndian.Uint64(body[:8])
		tc.Hop = body[8]
		body = body[traceContextLen:]
		if !tc.Traced() {
			return 0, 0, 0, TraceContext{}, nil, fmt.Errorf("protocol: traced data frame with zero trace id")
		}
	}
	p, err = rlnc.Unmarshal(f, body)
	if err != nil {
		return 0, 0, 0, TraceContext{}, nil, err
	}
	return thread, seq, emitNanos, tc, p, nil
}

// IsData reports whether the frame is a data frame.
func IsData(frame []byte) bool {
	return len(frame) > 0 && frame[0] == frameData
}

// keepaliveEchoLen is the keepalive layout: the kind byte, the thread
// word, and the echo timestamp triple (transmit time, echoed time, hold
// time — 8 bytes each).
const keepaliveEchoLen = 3 + 8 + 8 + 8

// KeepaliveInfo is the decoded form of a per-thread keepalive. A parent
// that has nothing to forward on a thread still proves liveness with
// these, so that downstream starvation (a failure further upstream) is
// never mistaken for the parent's own death — without them, complaint
// storms would expel innocent working ancestors one by one.
//
// Keepalives also measure RTT over the path data actually takes: a
// sender stamps TxNanos on its periodic keepalives (a probe); the
// receiver answers with EchoNanos = the received TxNanos and HoldNanos =
// its local processing delay; the original sender computes RTT = now −
// EchoNanos − HoldNanos. An echo carries TxNanos 0, so echoes are never
// themselves echoed.
type KeepaliveInfo struct {
	Thread    int
	TxNanos   int64
	EchoNanos int64
	HoldNanos int64
}

// IsProbe reports whether the keepalive asks to be echoed.
func (k KeepaliveInfo) IsProbe() bool { return k.TxNanos > 0 && k.EchoNanos == 0 }

// IsEcho reports whether the keepalive answers a probe.
func (k KeepaliveInfo) IsEcho() bool { return k.EchoNanos > 0 }

// EncodeKeepaliveEcho marshals a keepalive: a probe (tx set, echo/hold
// zero) or an echo reply (tx zero, echo = the probe's tx, hold = local
// processing delay).
func EncodeKeepaliveEcho(thread int, txNanos, echoNanos, holdNanos int64) []byte {
	var out [keepaliveEchoLen]byte
	out[0] = frameKeepalive
	binary.BigEndian.PutUint16(out[1:3], uint16(thread))
	binary.BigEndian.PutUint64(out[3:11], uint64(txNanos))
	binary.BigEndian.PutUint64(out[11:19], uint64(echoNanos))
	binary.BigEndian.PutUint64(out[19:27], uint64(holdNanos))
	return out[:]
}

// DecodeKeepaliveEcho unmarshals a keepalive. A frame shorter than the
// layout is an error. Trailing bytes beyond it are ignored — they belong
// to extensions a peer from a newer version may send; rejecting them
// would kill the link on any version skew.
func DecodeKeepaliveEcho(frame []byte) (KeepaliveInfo, error) {
	if len(frame) < keepaliveEchoLen || frame[0] != frameKeepalive {
		return KeepaliveInfo{}, fmt.Errorf("protocol: not a keepalive frame")
	}
	return KeepaliveInfo{
		Thread:    int(binary.BigEndian.Uint16(frame[1:3])),
		TxNanos:   int64(binary.BigEndian.Uint64(frame[3:11])),
		EchoNanos: int64(binary.BigEndian.Uint64(frame[11:19])),
		HoldNanos: int64(binary.BigEndian.Uint64(frame[19:27])),
	}, nil
}

// IsKeepalive reports whether the frame is a keepalive.
func IsKeepalive(frame []byte) bool {
	return len(frame) > 0 && frame[0] == frameKeepalive
}

// DataPlaneFrame reports whether the frame belongs on the lossy datagram
// data plane of a split-transport session: coded data frames (loss is
// harmless — any innovative packet substitutes for any other) and
// per-thread keepalives (periodic and idempotent; losing one costs
// nothing, and keeping them on the data path makes them probe the exact
// path whose liveness they vouch for). Everything else — hello, good-bye,
// complaint, repair, lease, stats — is control state that must arrive,
// and stays on the reliable stream transport.
//
// It is exported as a classifier func for transport.NewDual: the
// transport package cannot import protocol, so the frame taxonomy is
// injected from above.
func DataPlaneFrame(frame []byte) bool {
	return IsData(frame) || IsKeepalive(frame)
}

// dataFrameHeaderMax is the traced data-frame header.
const dataFrameHeaderMax = dataFrameHeaderLen + traceContextLen

// DataFrameOverhead returns the worst-case bytes a data frame adds on top
// of the coded payload over field f with generation size h: the traced
// frame header plus the rlnc packet header and coefficient vector. MTU
// budgeting uses it to size payloads so every data frame fits in one
// datagram.
func DataFrameOverhead(f gf.Field, h int) int {
	return dataFrameHeaderMax + rlnc.OverheadBytes(f, h)
}
