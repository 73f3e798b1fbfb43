package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"ncast/internal/obs"
)

// Control frame layout: the kind byte frameControl, one MsgType byte, then
// the message's fields in declared order, with no tags and no padding.
// Unsigned fields (IDs, counters) are uvarints; int and int64 fields are
// zig-zag varints; a bool is a uvarint 0 or 1; a string or slice is a
// uvarint count followed by its bytes or elements, and a nested struct is
// its own fields inline. The type byte alone names the layout. Bytes after
// the known layout are ignored — a newer peer may append fields, and
// rejecting them would kill the session on any version skew, as for
// DecodeKeepaliveEcho. An older peer's JSON envelope carries '{' where the
// type byte sits; that names no MsgType, so the frame is ignored as an
// unknown type.

// controlFrameCap is the initial capacity of an encoded control frame: a
// hello, welcome, redirect, lease or good-bye fits without regrowing.
const controlFrameCap = 64

// Decode errors are sentinels, so rejecting a malformed frame allocates
// nothing.
var (
	errNotControl       = errors.New("protocol: not a control frame")
	errControlTruncated = errors.New("protocol: control message truncated")
	errControlLength    = errors.New("protocol: control message count exceeds the bytes left")
	errControlRange     = errors.New("protocol: control message field out of range")
	errControlType      = errors.New("protocol: control payload does not match its type")
)

// controlType names the MsgType of a control message struct or a pointer
// to one, and 0 for anything else.
func controlType(msg interface{}) MsgType {
	switch msg.(type) {
	case Hello, *Hello:
		return MsgHello
	case Welcome, *Welcome:
		return MsgWelcome
	case Goodbye, *Goodbye:
		return MsgGoodbye
	case GoodbyeAck, *GoodbyeAck:
		return MsgGoodbyeAck
	case Complaint, *Complaint:
		return MsgComplaint
	case Redirect, *Redirect:
		return MsgRedirect
	case Complete, *Complete:
		return MsgComplete
	case ErrorMsg, *ErrorMsg:
		return MsgError
	case Expelled, *Expelled:
		return MsgExpelled
	case Congested, *Congested:
		return MsgCongested
	case Uncongested, *Uncongested:
		return MsgUncongested
	case ThreadDropped, *ThreadDropped:
		return MsgThreadDropped
	case ThreadAdded, *ThreadAdded:
		return MsgThreadAdded
	case Lease, *Lease:
		return MsgLease
	case StatsReport, *StatsReport:
		return MsgStatsReport
	}
	return 0
}

// newControl returns a pointer to a zero message of type t, or nil when t
// names no message.
func newControl(t MsgType) interface{} {
	switch t {
	case MsgHello:
		return new(Hello)
	case MsgWelcome:
		return new(Welcome)
	case MsgGoodbye:
		return new(Goodbye)
	case MsgGoodbyeAck:
		return new(GoodbyeAck)
	case MsgComplaint:
		return new(Complaint)
	case MsgRedirect:
		return new(Redirect)
	case MsgComplete:
		return new(Complete)
	case MsgError:
		return new(ErrorMsg)
	case MsgExpelled:
		return new(Expelled)
	case MsgCongested:
		return new(Congested)
	case MsgUncongested:
		return new(Uncongested)
	case MsgThreadDropped:
		return new(ThreadDropped)
	case MsgThreadAdded:
		return new(ThreadAdded)
	case MsgLease:
		return new(Lease)
	case MsgStatsReport:
		return new(StatsReport)
	}
	return nil
}

// EncodeControl marshals a control message of the given type. payload is
// the message struct t names, or a pointer to one; any other payload is
// an error.
func EncodeControl(t MsgType, payload interface{}) ([]byte, error) {
	// The switch calls each message's encoder statically, so payload does
	// not escape and a caller's struct is not copied to the heap.
	if got := controlType(payload); got == 0 || got != t {
		return nil, fmt.Errorf("protocol: encode control type %d: %w", t, errControlType)
	}
	b := append(make([]byte, 0, controlFrameCap), frameControl, byte(t))
	switch m := payload.(type) {
	case Hello:
		b = m.appendTo(b)
	case *Hello:
		b = m.appendTo(b)
	case Welcome:
		b = m.appendTo(b)
	case *Welcome:
		b = m.appendTo(b)
	case Goodbye:
		b = m.appendTo(b)
	case *Goodbye:
		b = m.appendTo(b)
	case GoodbyeAck, *GoodbyeAck:
		// No fields.
	case Complaint:
		b = m.appendTo(b)
	case *Complaint:
		b = m.appendTo(b)
	case Redirect:
		b = m.appendTo(b)
	case *Redirect:
		b = m.appendTo(b)
	case Complete:
		b = m.appendTo(b)
	case *Complete:
		b = m.appendTo(b)
	case ErrorMsg:
		b = m.appendTo(b)
	case *ErrorMsg:
		b = m.appendTo(b)
	case Expelled:
		b = m.appendTo(b)
	case *Expelled:
		b = m.appendTo(b)
	case Congested:
		b = m.appendTo(b)
	case *Congested:
		b = m.appendTo(b)
	case Uncongested:
		b = m.appendTo(b)
	case *Uncongested:
		b = m.appendTo(b)
	case ThreadDropped:
		b = m.appendTo(b)
	case *ThreadDropped:
		b = m.appendTo(b)
	case ThreadAdded:
		b = m.appendTo(b)
	case *ThreadAdded:
		b = m.appendTo(b)
	case Lease:
		b = m.appendTo(b)
	case *Lease:
		b = m.appendTo(b)
	case StatsReport:
		b = m.appendTo(b)
	case *StatsReport:
		b = m.appendTo(b)
	}
	return b, nil
}

// SplitControl splits a control frame into its message type and body. It
// does not judge the type: an unknown one — a newer peer's message, or the
// '{' of an older peer's JSON envelope — comes back as it is, for the
// caller's dispatch to ignore.
func SplitControl(frame []byte) (MsgType, []byte, error) {
	if len(frame) < 2 || frame[0] != frameControl {
		return 0, nil, errNotControl
	}
	return MsgType(frame[1]), frame[2:], nil
}

// UnmarshalControl decodes the body of a control message of type t into
// into, which must point to the struct t names. A count or length larger
// than the bytes left is rejected before anything is allocated for it;
// bytes after the known layout are ignored. On error, into may be
// partly written.
func UnmarshalControl(t MsgType, body []byte, into interface{}) error {
	if got := controlType(into); got == 0 || got != t {
		return fmt.Errorf("protocol: unmarshal control type %d: %w", t, errControlType)
	}
	r := ctlReader{b: body}
	switch m := into.(type) {
	case *Hello:
		m.readFrom(&r)
	case *Welcome:
		m.readFrom(&r)
	case *Goodbye:
		m.readFrom(&r)
	case *GoodbyeAck:
		// No fields.
	case *Complaint:
		m.readFrom(&r)
	case *Redirect:
		m.readFrom(&r)
	case *Complete:
		m.readFrom(&r)
	case *ErrorMsg:
		m.readFrom(&r)
	case *Expelled:
		m.readFrom(&r)
	case *Congested:
		m.readFrom(&r)
	case *Uncongested:
		m.readFrom(&r)
	case *ThreadDropped:
		m.readFrom(&r)
	case *ThreadAdded:
		m.readFrom(&r)
	case *Lease:
		m.readFrom(&r)
	case *StatsReport:
		m.readFrom(&r)
	default:
		return fmt.Errorf("protocol: unmarshal control type %d into a non-pointer: %w", t, errControlType)
	}
	return r.err
}

// DecodeControl decodes a control frame and renders its message as JSON,
// a view for tools that read control traffic as JSON. The protocol itself
// decodes with SplitControl and UnmarshalControl.
func DecodeControl(frame []byte) (MsgType, json.RawMessage, error) {
	t, body, err := SplitControl(frame)
	if err != nil {
		return 0, nil, err
	}
	msg := newControl(t)
	if msg == nil {
		return 0, nil, fmt.Errorf("protocol: unknown control type %d", t)
	}
	if err := UnmarshalControl(t, body, msg); err != nil {
		return 0, nil, err
	}
	raw, err := json.Marshal(msg)
	if err != nil {
		return 0, nil, fmt.Errorf("protocol: control type %d as JSON: %w", t, err)
	}
	return t, raw, nil
}

// Per-message layouts, fields in declared order.

func (m *Hello) appendTo(b []byte) []byte {
	b = appendString(b, m.Addr)
	return appendInt(b, m.Degree)
}

func (m *Hello) readFrom(r *ctlReader) {
	m.Addr = r.str()
	m.Degree = r.int()
}

func (m *Welcome) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, m.ID)
	b = appendInt(b, m.K)
	b = appendInt(b, m.Degree)
	b = appendInt(b, m.Session.FieldBits)
	b = appendInt(b, m.Session.GenSize)
	b = appendInt(b, m.Session.PacketSize)
	b = appendInt(b, m.Session.ContentLen)
	b = appendInts(b, m.Session.LayerSizes)
	b = appendInts(b, m.Threads)
	b = binary.AppendVarint(b, m.LeaseMillis)
	return binary.AppendVarint(b, m.StatsMillis)
}

func (m *Welcome) readFrom(r *ctlReader) {
	m.ID = r.uvarint()
	m.K = r.int()
	m.Degree = r.int()
	m.Session.FieldBits = r.int()
	m.Session.GenSize = r.int()
	m.Session.PacketSize = r.int()
	m.Session.ContentLen = r.int()
	m.Session.LayerSizes = r.ints()
	m.Threads = r.ints()
	m.LeaseMillis = r.varint()
	m.StatsMillis = r.varint()
}

func (m *Goodbye) appendTo(b []byte) []byte { return binary.AppendUvarint(b, m.ID) }
func (m *Goodbye) readFrom(r *ctlReader)    { m.ID = r.uvarint() }

func (m *Complaint) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, m.ID)
	b = appendInt(b, m.Thread)
	return appendString(b, m.ParentAddr)
}

func (m *Complaint) readFrom(r *ctlReader) {
	m.ID = r.uvarint()
	m.Thread = r.int()
	m.ParentAddr = r.str()
}

func (m *Redirect) appendTo(b []byte) []byte {
	b = appendInt(b, m.Thread)
	return appendString(b, m.ChildAddr)
}

func (m *Redirect) readFrom(r *ctlReader) {
	m.Thread = r.int()
	m.ChildAddr = r.str()
}

func (m *Complete) appendTo(b []byte) []byte    { return binary.AppendUvarint(b, m.ID) }
func (m *Complete) readFrom(r *ctlReader)       { m.ID = r.uvarint() }
func (m *ErrorMsg) appendTo(b []byte) []byte    { return appendString(b, m.Reason) }
func (m *ErrorMsg) readFrom(r *ctlReader)       { m.Reason = r.str() }
func (m *Expelled) appendTo(b []byte) []byte    { return binary.AppendUvarint(b, m.ID) }
func (m *Expelled) readFrom(r *ctlReader)       { m.ID = r.uvarint() }
func (m *Congested) appendTo(b []byte) []byte   { return binary.AppendUvarint(b, m.ID) }
func (m *Congested) readFrom(r *ctlReader)      { m.ID = r.uvarint() }
func (m *Uncongested) appendTo(b []byte) []byte { return binary.AppendUvarint(b, m.ID) }
func (m *Uncongested) readFrom(r *ctlReader)    { m.ID = r.uvarint() }
func (m *Lease) appendTo(b []byte) []byte       { return binary.AppendUvarint(b, m.ID) }
func (m *Lease) readFrom(r *ctlReader)          { m.ID = r.uvarint() }

func (m *ThreadDropped) appendTo(b []byte) []byte { return appendInt(b, m.Thread) }
func (m *ThreadDropped) readFrom(r *ctlReader)    { m.Thread = r.int() }

func (m *ThreadAdded) appendTo(b []byte) []byte {
	b = appendInt(b, m.Thread)
	return appendString(b, m.ChildAddr)
}

func (m *ThreadAdded) readFrom(r *ctlReader) {
	m.Thread = r.int()
	m.ChildAddr = r.str()
}

func (m *StatsReport) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, m.ID)
	b = appendInt(b, m.Rank)
	b = appendInt(b, m.MaxRank)
	b = appendInts(b, m.GenRanks)
	b = appendInt(b, m.GensDone)
	b = appendInt(b, m.TotalGens)
	b = appendBool(b, m.Complete)
	b = binary.AppendUvarint(b, m.Received)
	b = binary.AppendUvarint(b, m.Innovative)
	b = binary.AppendUvarint(b, m.Redundant)
	b = binary.AppendUvarint(b, m.Complaints)
	b = binary.AppendUvarint(b, m.LeaseRenewals)
	b = appendInt(b, m.QueueDepth)
	b = binary.AppendVarint(b, m.DelayP50Nanos)
	b = binary.AppendVarint(b, m.DelayP90Nanos)
	b = binary.AppendVarint(b, m.DelayP99Nanos)
	b = appendInt(b, m.OverheadPermille)
	b = binary.AppendUvarint(b, uint64(len(m.TraceHops)))
	for i := range m.TraceHops {
		h := &m.TraceHops[i]
		b = binary.AppendUvarint(b, h.TraceID)
		b = binary.AppendUvarint(b, uint64(h.Gen))
		b = appendInt(b, h.Hop)
		b = appendInt(b, h.Received)
		b = appendInt(b, h.Innovative)
		b = appendInt(b, h.Forwarded)
		b = binary.AppendVarint(b, h.FirstArrivalNano)
		b = binary.AppendVarint(b, h.LastArrivalNano)
		b = binary.AppendVarint(b, h.EmitNanos)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Links)))
	for i := range m.Links {
		l := &m.Links[i]
		b = appendString(b, l.Peer)
		b = binary.AppendUvarint(b, l.Frames)
		b = binary.AppendUvarint(b, l.Bytes)
		b = binary.AppendUvarint(b, l.Expected)
		b = binary.AppendUvarint(b, l.Received)
		b = binary.AppendUvarint(b, l.Dup)
		b = binary.AppendUvarint(b, l.Reordered)
		b = appendInt(b, l.LossPermille)
		b = binary.AppendVarint(b, l.RTTEwmaNanos)
		b = binary.AppendVarint(b, l.JitterNanos)
		b = binary.AppendUvarint(b, l.RTTSamples)
		b = binary.AppendUvarint(b, l.Innovative)
		b = binary.AppendUvarint(b, l.Redundant)
		b = appendInt(b, l.InnovationPermille)
		b = binary.AppendVarint(b, l.LastRecvUnixNanos)
	}
	return b
}

// Minimum encoded sizes of the StatsReport elements, one byte per field,
// which bound what a count may claim against the bytes left.
const (
	traceHopMinSize   = 9
	linkReportMinSize = 15
)

func (m *StatsReport) readFrom(r *ctlReader) {
	m.ID = r.uvarint()
	m.Rank = r.int()
	m.MaxRank = r.int()
	m.GenRanks = r.ints()
	m.GensDone = r.int()
	m.TotalGens = r.int()
	m.Complete = r.bool()
	m.Received = r.uvarint()
	m.Innovative = r.uvarint()
	m.Redundant = r.uvarint()
	m.Complaints = r.uvarint()
	m.LeaseRenewals = r.uvarint()
	m.QueueDepth = r.int()
	m.DelayP50Nanos = r.varint()
	m.DelayP90Nanos = r.varint()
	m.DelayP99Nanos = r.varint()
	m.OverheadPermille = r.int()
	if n := r.count(traceHopMinSize); n > 0 {
		m.TraceHops = make([]obs.TraceHop, n)
		for i := range m.TraceHops {
			h := &m.TraceHops[i]
			h.TraceID = r.uvarint()
			h.Gen = r.uint32()
			h.Hop = r.int()
			h.Received = r.int()
			h.Innovative = r.int()
			h.Forwarded = r.int()
			h.FirstArrivalNano = r.varint()
			h.LastArrivalNano = r.varint()
			h.EmitNanos = r.varint()
		}
	}
	if n := r.count(linkReportMinSize); n > 0 {
		m.Links = make([]obs.LinkReport, n)
		for i := range m.Links {
			l := &m.Links[i]
			l.Peer = r.str()
			l.Frames = r.uvarint()
			l.Bytes = r.uvarint()
			l.Expected = r.uvarint()
			l.Received = r.uvarint()
			l.Dup = r.uvarint()
			l.Reordered = r.uvarint()
			l.LossPermille = r.int()
			l.RTTEwmaNanos = r.varint()
			l.JitterNanos = r.varint()
			l.RTTSamples = r.uvarint()
			l.Innovative = r.uvarint()
			l.Redundant = r.uvarint()
			l.InnovationPermille = r.int()
			l.LastRecvUnixNanos = r.varint()
		}
	}
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendInts(b []byte, v []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = appendInt(b, x)
	}
	return b
}

// ctlReader walks a control message body. The first malformed field sets
// err and every later read returns zero, so a message decoder reads its
// fields unconditionally and the caller checks err once.
type ctlReader struct {
	b   []byte
	err error
}

func (r *ctlReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errControlTruncated
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *ctlReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = errControlTruncated
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *ctlReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.err = errControlRange
		return 0
	}
	return int(v)
}

func (r *ctlReader) uint32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.err = errControlRange
		return 0
	}
	return uint32(v)
}

func (r *ctlReader) bool() bool {
	v := r.uvarint()
	if v > 1 {
		r.err = errControlRange
		return false
	}
	return v == 1
}

// count reads the element count of a string or slice whose elements take
// at least minSize bytes each, and rejects one the bytes left cannot hold
// before the caller allocates for it.
func (r *ctlReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.err = errControlLength
		return 0
	}
	return int(n)
}

func (r *ctlReader) str() string {
	n := r.count(1)
	if n == 0 {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *ctlReader) ints() []int {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = r.int()
	}
	return v
}
