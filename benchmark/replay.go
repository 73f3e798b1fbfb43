package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ncast/internal/core"
	"ncast/internal/gf"
	"ncast/internal/protocol"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// The pipeline replay pushes a workload's own packet mix by hand, on one
// goroutine, through the chain of layer calls a frame makes on its way
// from the source through one relay to a receiver, with a span around
// every call. Nothing overlaps and nothing waits, so a layer's self time
// per frame is what that layer costs when it is the only thing running —
// the figure to set against the end-to-end rate. rlnc spans include the
// gf kernels they call until spans exist inside the program.

// stepper records back-to-back spans under one parent: each step's end is
// the next one's start, so n calls cost n+1 clock reads.
type stepper struct {
	tr      *tracer
	session string
	parent  int
	last    time.Time
}

func (s *stepper) begin(name string) {
	s.last = time.Now()
	s.parent = s.tr.open(s.session, name, "replay", 0, s.last)
}

func (s *stepper) step(name, layer string) {
	now := time.Now()
	s.tr.add(s.session, name, layer, s.parent, s.last, now)
	s.last = now
}

func (s *stepper) end() { s.tr.close(s.parent, time.Now()) }

// replayLimit caps how many operations one replay pushes through.
const replayLimit = 6000

// replay runs the workload's pipeline and returns the number of
// operations (frames, or joins and leaves) it pushed.
func (w spec) replay(seed int64, tr *tracer) (int, error) {
	if w.churn {
		return w.replayControl(seed, tr)
	}
	return w.replayData(seed, tr)
}

func (w spec) replayData(seed int64, tr *tracer) (int, error) {
	f := gf.F256
	h, size := w.genSize, w.pktSize
	gens := w.generations()
	if gens > replayLimit/h/2 {
		gens = replayLimit / h / 2
	}
	params := rlnc.Params{Field: f, GenSize: h, PacketSize: size}
	content := seededBytes(seed, gens*h*size)
	fe, err := rlnc.NewFileEncoder(params, content)
	if err != nil {
		return 0, err
	}
	fd, err := rlnc.NewFileDecoder(params, len(content))
	if err != nil {
		return 0, err
	}
	var src, dst transport.Endpoint
	if w.sockets {
		a, err := transport.ListenUDP("127.0.0.1:0", transport.UDPConfig{})
		if err != nil {
			return 0, err
		}
		defer a.Close()
		b, err := transport.ListenUDP("127.0.0.1:0", transport.UDPConfig{})
		if err != nil {
			return 0, err
		}
		defer b.Close()
		src, dst = a, b
	} else {
		netw := transport.NewNetwork(transport.WithSeed(seed))
		defer netw.Close()
		if src, err = netw.Endpoint("source"); err != nil {
			return 0, err
		}
		if dst, err = netw.Endpoint("relay"); err != nil {
			return 0, err
		}
	}
	r := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	st := stepper{tr: tr, session: fmt.Sprintf("%s/replay", w.name)}
	buf := make([]byte, 0, 2048)
	frames := 0
	for g := 0; g < gens; g++ {
		rc, err := rlnc.NewRecoder(f, uint32(g), h, size)
		if err != nil {
			return frames, err
		}
		// The source's schedule for one generation: its h source packets
		// uncoded first, then coded repair until the receiver has it.
		for sent := 0; !fd.GenerationComplete(g) && sent < 4*h; sent++ {
			frames++
			st.begin("frame")
			var p *rlnc.Packet
			if sent < h {
				p, err = fe.Systematic(g, sent)
				st.step("FileEncoder.Systematic", "rlnc")
			} else {
				p, err = fe.Packet(g, r)
				st.step("FileEncoder.Packet", "rlnc")
			}
			if err != nil {
				return frames, err
			}
			buf = protocol.AppendDataSeq(buf[:0], f, 0, int32(frames%protocol.SeqMod), 1, protocol.TraceContext{}, p)
			st.step("AppendDataSeq", "protocol")
			p.Release()
			err = src.Send(ctx, dst.Addr(), buf)
			st.step("Send", "transport")
			if err != nil {
				return frames, err
			}
			rctx, cancel := context.WithTimeout(ctx, time.Second)
			_, frame, err := dst.Recv(rctx)
			cancel()
			if err != nil || r.Float64() < w.loss {
				// Lost — by the seed's coin, as on the workload's wire, or
				// a loopback datagram the kernel dropped: the receive side
				// of this frame never runs, and taking it off the queue is
				// left to the frame's own (harness) time.
				st.end()
				continue
			}
			st.step("Recv", "transport")
			_, _, _, _, in, err := protocol.DecodeDataSeq(f, frame)
			st.step("DecodeDataSeq", "protocol")
			if err != nil {
				return frames, err
			}
			_, err = rc.Add(in)
			st.step("Recoder.Add", "rlnc")
			in.Release()
			if err != nil {
				return frames, err
			}
			out, _ := rc.Packet(r)
			st.step("Recoder.Packet", "rlnc")
			_, err = fd.Add(out)
			st.step("FileDecoder.Add", "rlnc")
			out.Release()
			st.end()
			if err != nil {
				return frames, err
			}
		}
		if !fd.GenerationComplete(g) {
			return frames, fmt.Errorf("replay: generation %d not decoded after %d frames", g, 4*h)
		}
	}
	got, err := fd.Bytes()
	if err != nil || !bytes.Equal(got, content) {
		return frames, fmt.Errorf("replay: decoded content differs from source (err=%v)", err)
	}
	return frames, nil
}

// replayControl is the control-plane chain for one join and one leave:
// the hello and welcome through the control codec and the fabric, the
// matrix operation on a curtain already holding the flash crowd.
func (w spec) replayControl(seed int64, tr *tracer) (int, error) {
	netw := transport.NewNetwork(transport.WithSeed(seed))
	defer netw.Close()
	node, err := netw.Endpoint("node")
	if err != nil {
		return 0, err
	}
	tracker, err := netw.Endpoint("tracker")
	if err != nil {
		return 0, err
	}
	cur, err := core.New(w.k, w.d, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, err
	}
	for i := 0; i < w.crowd; i++ {
		cur.Join()
	}
	ctx := context.Background()
	st := stepper{tr: tr, session: fmt.Sprintf("%s/replay", w.name)}
	// exchange carries one control message from one endpoint to the other
	// and decodes it on arrival.
	exchange := func(from, to transport.Endpoint, typ protocol.MsgType, payload, into interface{}) error {
		b, err := protocol.EncodeControl(typ, payload)
		st.step("EncodeControl", "protocol")
		if err != nil {
			return err
		}
		err = from.Send(ctx, to.Addr(), b)
		st.step("Send", "transport")
		if err != nil {
			return err
		}
		_, frame, err := to.Recv(ctx)
		st.step("Recv", "transport")
		if err != nil {
			return err
		}
		_, raw, err := protocol.DecodeControl(frame)
		if err == nil {
			err = json.Unmarshal(raw, into)
		}
		st.step("DecodeControl", "protocol")
		return err
	}
	ops := 0
	for ; ops < replayLimit/2; ops += 2 {
		st.begin("join")
		var hello protocol.Hello
		if err := exchange(node, tracker, protocol.MsgHello, protocol.Hello{Addr: "node", Degree: w.d}, &hello); err != nil {
			return ops, err
		}
		id := cur.Join()
		threads, err := cur.Threads(id)
		st.step("Curtain.Join", "core")
		if err != nil {
			return ops, err
		}
		var welcome protocol.Welcome
		if err := exchange(tracker, node, protocol.MsgWelcome,
			protocol.Welcome{ID: uint64(id), K: w.k, Degree: w.d, Threads: threads}, &welcome); err != nil {
			return ops, err
		}
		st.end()

		st.begin("leave")
		var bye protocol.Goodbye
		if err := exchange(node, tracker, protocol.MsgGoodbye, protocol.Goodbye{ID: welcome.ID}, &bye); err != nil {
			return ops, err
		}
		err = cur.Leave(core.NodeID(bye.ID))
		st.step("Curtain.Leave", "core")
		if err != nil {
			return ops, err
		}
		var ack protocol.GoodbyeAck
		if err := exchange(tracker, node, protocol.MsgGoodbyeAck, protocol.GoodbyeAck{}, &ack); err != nil {
			return ops, err
		}
		st.end()
	}
	if err := cur.CheckInvariants(); err != nil {
		return ops, err
	}
	return ops, nil
}
