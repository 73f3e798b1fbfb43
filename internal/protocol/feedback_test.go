package protocol

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// randomWords returns the full-slot words of a random set over n slots:
// a full prefix of random length, then slots full with probability p.
func randomWords(rng *rand.Rand, n int, p float64) []uint64 {
	words := make([]uint64, (n+63)/64)
	prefix := rng.Intn(n + 1)
	for slot := 0; slot < n; slot++ {
		if slot < prefix || rng.Float64() < p {
			words[slot>>6] |= 1 << (slot & 63)
		}
	}
	return words
}

// refFull is genSet.full from the definition, one slot at a time.
func refFull(s genSet, slot int) bool {
	if slot < int(s.low) {
		return true
	}
	i := slot - int(s.low)
	return i/64 < len(s.bits) && s.bits[i/64]>>(i%64)&1 != 0
}

func wordFull(words []uint64, slot int) bool {
	return slot>>6 < len(words) && words[slot>>6]>>(slot&63)&1 != 0
}

// TestFeedbackReportRoundTrip: a report folded from any set of full slots
// marks exactly those slots (up to the bitmap cap), survives the probe
// tail unchanged, reads back word by word, and finds the same next open
// slot as a scan one slot at a time.
func TestFeedbackReportRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(3*64*reportBitmapCap/8/2)
		words := randomWords(rng, n, rng.Float64())
		s := foldWords(words)
		capEnd := int(s.low) + 8*reportBitmapCap
		for slot := 0; slot < n; slot++ {
			want := wordFull(words, slot) && slot < capEnd
			if s.full(slot) != want || refFull(s, slot) != want {
				t.Fatalf("trial %d: slot %d full=%v, want %v (low %d)", trial, slot, s.full(slot), want, s.low)
			}
		}
		frame := appendReport(EncodeKeepaliveEcho(3, 1, 0, 0), s)
		if len(frame) > keepaliveEchoLen+reportTailMin+reportBitmapCap {
			t.Fatalf("trial %d: %d-byte probe over the cap", trial, len(frame))
		}
		got, err := decodeReport(frame)
		if err != nil || !got.equal(s) {
			t.Fatalf("trial %d: tail round trip %+v -> %+v, err %v", trial, s, got, err)
		}
		for w := range words {
			want := uint64(0)
			for i := 0; i < 64; i++ {
				if refFull(got, 64*w+i) {
					want |= 1 << i
				}
			}
			if got.word(w) != want {
				t.Fatalf("trial %d: word %d = %x, want %x", trial, w, got.word(w), want)
			}
		}
		for probe := 0; probe < 20; probe++ {
			from := rng.Intn(n)
			want := -1
			for i := 0; i < n; i++ {
				if slot := (from + i) % n; !refFull(got, slot) {
					want = slot
					break
				}
			}
			if g := got.nextOpen(from, n); g != want {
				t.Fatalf("trial %d: nextOpen(%d) = %d, want %d", trial, from, g, want)
			}
		}
	}
}

// TestFeedbackReportWordsAtAnyLowWater: a report decoded from the wire
// may carry any low-water mark, not only the word-aligned ones the fold
// writes; reading it word by word, slot by slot or for the next open slot
// must agree with the definition.
func TestFeedbackReportWordsAtAnyLowWater(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		s := genSet{low: uint32(rng.Intn(300))}
		for i := rng.Intn(4); i > 0; i-- {
			s.bits = append(s.bits, rng.Uint64())
		}
		for w := 0; w < 12; w++ {
			want := uint64(0)
			for i := 0; i < 64; i++ {
				if refFull(s, 64*w+i) {
					want |= 1 << i
				}
				if s.full(64*w+i) != refFull(s, 64*w+i) {
					t.Fatalf("low %d bits %x: slot %d full=%v", s.low, s.bits, 64*w+i, s.full(64*w+i))
				}
			}
			if s.word(w) != want {
				t.Fatalf("low %d bits %x: word %d = %x, want %x", s.low, s.bits, w, s.word(w), want)
			}
		}
		const n = 12 * 64
		from := rng.Intn(n)
		want := -1
		for i := 0; i < n; i++ {
			if slot := (from + i) % n; !refFull(s, slot) {
				want = slot
				break
			}
		}
		if g := s.nextOpen(from, n); g != want {
			t.Fatalf("low %d bits %x: nextOpen(%d) = %d, want %d", s.low, s.bits, from, g, want)
		}
	}
}

// TestFeedbackBareProbeReportsNothing: the 27-byte probe is "nothing
// full", an empty report adds no tail, and malformed tails are errors.
func TestFeedbackBareProbeReportsNothing(t *testing.T) {
	t.Parallel()
	probe := EncodeKeepaliveEcho(1, 1, 0, 0)
	if s, err := decodeReport(probe); err != nil || !s.empty() {
		t.Fatalf("bare probe: %+v, err %v", s, err)
	}
	if got := appendReport(probe, genSet{}); len(got) != keepaliveEchoLen {
		t.Fatalf("empty report grew the probe to %d bytes", len(got))
	}
	for _, n := range []int{1, reportTailMin - 1, reportTailMin + reportBitmapCap + 1} {
		if _, err := decodeReport(append(EncodeKeepaliveEcho(1, 1, 0, 0), make([]byte, n)...)); err == nil {
			t.Fatalf("%d-byte tail accepted", n)
		}
	}
	atCap := append(EncodeKeepaliveEcho(1, 1, 0, 0), make([]byte, reportTailMin+reportBitmapCap)...)
	atCap[len(atCap)-1] = 0x80
	s, err := decodeReport(atCap)
	if err != nil || !s.full(8*reportBitmapCap-1) || s.full(8*reportBitmapCap) {
		t.Fatalf("bitmap at the cap: %+v, err %v", s, err)
	}
}

// sendRecorder is an Endpoint that records the thread and generation of
// every data frame the source sends and cancels the run after limit.
type sendRecorder struct {
	mu     sync.Mutex
	sent   []threadGen
	limit  int
	cancel context.CancelFunc
	// onSend, when set, runs after each recorded frame with the count so
	// far; it may reroute the source.
	onSend func(n int)
}

type threadGen struct{ th, gen int }

func (e *sendRecorder) Addr() string { return "source" }

func (e *sendRecorder) Send(ctx context.Context, to string, msg []byte) error {
	th, _, _, _, p, err := DecodeDataSeq(gf.F256, msg)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.sent = append(e.sent, threadGen{th, int(p.Gen)})
	n := len(e.sent)
	e.mu.Unlock()
	p.Release()
	if e.onSend != nil {
		e.onSend(n)
	}
	if n == e.limit {
		e.cancel()
	}
	return nil
}

func (e *sendRecorder) Recv(ctx context.Context) (string, []byte, error) {
	<-ctx.Done()
	return "", nil, ctx.Err()
}

func (e *sendRecorder) Close() error { return nil }

// runRecorded runs source against rec until rec has seen limit frames.
func runRecorded(t *testing.T, source *Source, rec *sendRecorder, limit int) []threadGen {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec.limit, rec.cancel = limit, cancel
	done := make(chan struct{})
	go func() { defer close(done); _ = source.Run(ctx) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("source did not send the frames")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]threadGen(nil), rec.sent...)
}

// TestFeedbackNoReportKeepsSchedule: with no completion report on any
// thread, the source sends thread th generation (round+th) mod G in every
// round, exactly the round-robin it ran before feedback existed, also
// for a thread that hung for the first rounds. Thread 3 starts hanging
// and gets its child after 50 frames; every round still sends on threads
// 0-2, so a round starts whenever the thread index does not grow.
func TestFeedbackNoReportKeepsSchedule(t *testing.T) {
	t.Parallel()
	params := rlnc.Params{Field: gf.F256, GenSize: 4, PacketSize: 16}
	rec := &sendRecorder{}
	source, err := NewSource(rec, 5, params, randContent(37*4*16), 1)
	if err != nil {
		t.Fatal(err)
	}
	source.Systematic = true
	for th := 0; th < 3; th++ {
		source.SetChild(th, fmt.Sprintf("child-%d", th))
	}
	rec.onSend = func(n int) {
		if n == 50 {
			source.SetChild(3, "child-3")
		}
	}
	sent := runRecorded(t, source, rec, 2000)
	gens := source.fe.NumGenerations()
	round, prev, late := 0, -1, false
	for i, s := range sent {
		if s.th <= prev {
			round++
		}
		prev = s.th
		if s.th == 4 {
			t.Fatalf("frame %d on hanging thread 4", i)
		}
		late = late || s.th == 3
		if want := (round + s.th) % gens; s.gen != want {
			t.Fatalf("frame %d (round %d, thread %d): generation %d, want %d", i, round, s.th, s.gen, want)
		}
	}
	if !late {
		t.Fatal("thread 3 never sent after its child arrived")
	}
}

// reportFrame is a probe on thread th carrying the report that marks the
// slots in full.
func reportFrame(th, slots int, full func(slot int) bool) []byte {
	words := make([]uint64, (slots+63)/64)
	for slot := 0; slot < slots; slot++ {
		if full(slot) {
			words[slot>>6] |= 1 << (slot & 63)
		}
	}
	return appendReport(EncodeKeepaliveEcho(th, time.Now().UnixNano(), 0, 0), foldWords(words))
}

// TestFeedbackSourceSkipsFullGenerations: the source skips, on one thread
// only, the generations that thread's child reports full; it ignores a
// report from anyone but the thread's child and forgets the report when
// the child changes; and once every thread reports everything full it
// sends nothing and counts no rounds.
func TestFeedbackSourceSkipsFullGenerations(t *testing.T) {
	t.Parallel()
	params := rlnc.Params{Field: gf.F256, GenSize: 4, PacketSize: 16}
	rec := &sendRecorder{}
	source, err := NewSource(rec, 3, params, randContent(20*4*16), 1)
	if err != nil {
		t.Fatal(err)
	}
	source.Obs = obs.NewSourceMetrics(obs.NewRegistry())
	gens := source.fe.NumGenerations()
	for th := 0; th < 3; th++ {
		source.SetChild(th, fmt.Sprintf("child-%d", th))
	}
	even := func(slot int) bool { return slot%2 == 0 }
	source.observeProbe("child-1", 1, reportFrame(1, gens, even))
	source.observeProbe("child-0", 2, reportFrame(2, gens, func(int) bool { return true })) // not thread 2's child
	perThread := map[int][]int{}
	for _, s := range runRecorded(t, source, rec, 300) {
		perThread[s.th] = append(perThread[s.th], s.gen)
	}
	for i, g := range perThread[1] {
		if even(g) {
			t.Fatalf("thread 1 frame %d: generation %d, which its child reported full", i, g)
		}
	}
	if len(perThread[1]) < 90 || len(perThread[2]) < 90 {
		t.Fatalf("frames per thread %d/%d/%d: a skipping thread must still send every round", len(perThread[0]), len(perThread[1]), len(perThread[2]))
	}
	for th := 0; th < 3; th += 2 {
		for i, g := range perThread[th] {
			if i > 0 && g != (perThread[th][i-1]+1)%gens {
				t.Fatalf("thread %d skipped from %d to %d with no report of its own", th, perThread[th][i-1], g)
			}
		}
	}

	// A child change forgets the report: thread 1 sends even generations again.
	source.SetChild(1, "child-1b")
	rec.sent = nil
	sawEven := false
	for _, s := range runRecorded(t, source, rec, 60) {
		sawEven = sawEven || (s.th == 1 && even(s.gen))
	}
	if !sawEven {
		t.Fatal("thread 1 still skips after its child changed")
	}

	// Everything full on every thread: the source sends nothing and idles.
	for th := 0; th < 3; th++ {
		source.observeProbe(source.down[th].child, th, reportFrame(th, gens, func(int) bool { return true }))
	}
	rec.sent = nil
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rec.limit, rec.cancel = -1, cancel
	rounds := source.Obs.Rounds.Value()
	_ = source.Run(ctx)
	if len(rec.sent) != 0 || source.Obs.Rounds.Value() != rounds {
		t.Fatalf("fully reported source sent %d frames in %d rounds", len(rec.sent), source.Obs.Rounds.Value()-rounds)
	}
}

// TestFeedbackNodeSkipsAndFolds drives one node between a scripted parent
// and child on its one thread. Before the child reports, every frame from
// the parent is forwarded and the node's probes up carry no report. Once
// the child reports the generation full, the node forwards nothing more
// and its keepalive beat to the child is a probe; once the node also
// decodes it, its probe up reports it full. A report from a peer that is
// not the thread's child changes nothing, and a redirect to a new child
// drops the report.
func TestFeedbackNodeSkipsAndFolds(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	parent, child := newEndpoint(t, net, "parent"), newEndpoint(t, net, "child")
	stranger := newEndpoint(t, net, "stranger")
	node, tracker, _ := joinScripted(t, net, NodeConfig{Seed: 1, ComplaintTimeout: 40 * time.Millisecond})
	sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: 0, ChildAddr: "child"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frames := codedFrames(40)
	next := 0
	feed := func() {
		t.Helper()
		if err := parent.Send(ctx, "node", frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// drain returns what ep received within d: data frames, and the
	// reports on the probes among them.
	drain := func(ep transport.Endpoint, d time.Duration) (data int, reports []genSet) {
		rctx, rcancel := context.WithTimeout(ctx, d)
		defer rcancel()
		for {
			_, frame, err := ep.Recv(rctx)
			if err != nil {
				return data, reports
			}
			if IsData(frame) {
				data++
			} else if ki, err := DecodeKeepaliveEcho(frame); err == nil && ki.IsProbe() {
				s, err := decodeReport(frame)
				if err != nil {
					t.Fatalf("malformed report: %v", err)
				}
				reports = append(reports, s)
			}
		}
	}
	full := reportFrame(0, 1, func(int) bool { return true })

	// One frame in: the node forwards it, and reports nothing yet.
	feed()
	waitFor(t, 5*time.Second, "the forwarded frame", func() bool { n, _ := drain(child, 20*time.Millisecond); return n > 0 })
	waitFor(t, 5*time.Second, "a probe up", func() bool {
		_, reps := drain(parent, 30*time.Millisecond)
		for _, r := range reps {
			if !r.empty() {
				t.Fatalf("probe up reports %+v before any decode", r)
			}
		}
		return len(reps) > 0
	})

	// A stranger's report is not the child's. It reaches the node before
	// the parent's next frame, so once that frame is in, the stranger's
	// report has been seen and dropped.
	if err := stranger.Send(ctx, "node", full); err != nil {
		t.Fatal(err)
	}
	received, _ := node.Stats()
	feed()
	waitFor(t, 5*time.Second, "the next frame", func() bool { n, _ := node.Stats(); return n > received })
	node.mu.Lock()
	heard := !node.threadLocked(0).down.full.empty()
	node.mu.Unlock()
	if heard {
		t.Fatal("the node took a report from a peer that is not its child")
	}

	// The child reports the generation full: the node decodes it but
	// forwards nothing, and its beats to the child carry no data.
	if err := child.Send(ctx, "node", full); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the child's report", func() bool {
		node.mu.Lock()
		defer node.mu.Unlock()
		return node.threadLocked(0).down.full.full(0)
	})
	// Flush what went out before the report took effect. The clock sends
	// beats in order, and the first beat after the report is a probe.
	waitFor(t, 5*time.Second, "a probe beat to the child", func() bool {
		rctx, rcancel := context.WithTimeout(ctx, 20*time.Millisecond)
		defer rcancel()
		_, frame, err := child.Recv(rctx)
		return err == nil && IsKeepalive(frame)
	})
	for i := 0; i < 6; i++ {
		feed()
	}
	waitFor(t, 5*time.Second, "the node to decode", func() bool { return node.Progress() == 1 })
	feed()
	if n, _ := drain(child, 100*time.Millisecond); n != 0 {
		t.Fatalf("node forwarded %d frames of a generation its child holds", n)
	}
	waitFor(t, 5*time.Second, "a report of the decoded generation", func() bool {
		_, reps := drain(parent, 30*time.Millisecond)
		return len(reps) > 0 && reps[len(reps)-1].full(0)
	})

	// A redirect to a new child drops the report: the new child hears
	// data again, and the node reports nothing full until it reports.
	fresh := newEndpoint(t, net, "fresh")
	sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: 0, ChildAddr: "fresh"})
	feed()
	waitFor(t, 5*time.Second, "data to the new child", func() bool { n, _ := drain(fresh, 20*time.Millisecond); return n > 0 })
	waitFor(t, 5*time.Second, "the report to reset", func() bool {
		_, reps := drain(parent, 30*time.Millisecond)
		return len(reps) > 0 && reps[len(reps)-1].empty()
	})
}

// TestStalledChildBeatsStayBounded: each keepalive beat goes out on the
// clock's own deadline-free context, so a beat to a child whose queue is
// full costs at most transport.QueueWait, and the beats after it still
// go out. The clock is off (no ComplaintTimeout); the test runs the
// keepalive itself.
func TestStalledChildBeatsStayBounded(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	live := []transport.Endpoint{newEndpoint(t, net, "child-1"), newEndpoint(t, net, "child-2")}
	newEndpoint(t, net, "stalled")
	node, tracker, _ := joinScripted(t, net, NodeConfig{Seed: 1})
	sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: 0, ChildAddr: "stalled"})
	sendControl(t, tracker, "node", MsgThreadAdded, ThreadAdded{Thread: 1, ChildAddr: "child-1"})
	sendControl(t, tracker, "node", MsgThreadAdded, ThreadAdded{Thread: 2, ChildAddr: "child-2"})
	waitFor(t, 5*time.Second, "three children", func() bool {
		node.mu.Lock()
		defer node.mu.Unlock()
		children := 0
		for _, r := range node.table {
			if r.down.child != "" {
				children++
			}
		}
		return children == 3
	})
	fillQueue(t, newEndpoint(t, net, "filler"), "stalled")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every run must end, and a typical one within QueueWait and slack: a
	// loaded host under the race detector can stall any single run.
	var took []time.Duration
	for run := 0; run < 5; run++ {
		start := time.Now()
		node.keepalive(ctx)
		if took = append(took, time.Since(start)); took[run] > time.Second {
			t.Fatalf("run %d: keepalive took %v behind one stalled child", run, took[run])
		}
		for i, ep := range live {
			rctx, rcancel := context.WithTimeout(ctx, time.Second)
			_, frame, err := ep.Recv(rctx)
			rcancel()
			if err != nil || !IsKeepalive(frame) {
				t.Fatalf("run %d: child-%d got no beat: %v", run, i+1, err)
			}
		}
	}
	slices.Sort(took)
	if took[2] > transport.QueueWait+100*time.Millisecond {
		t.Fatalf("keepalive runs took %v behind one stalled child, want a median of at most QueueWait (%v) plus slack", took, transport.QueueWait)
	}
}

// probeRewriter returns an adversary whose outbound probes go through
// rewrite with their destination; everything else passes untouched.
func probeRewriter(rewrite func(to string, frame []byte) []byte) func(transport.Endpoint) transport.Endpoint {
	return func(ep transport.Endpoint) transport.Endpoint {
		return &adversary{Endpoint: ep, rewrite: func(to string, frame []byte) []byte {
			if ki, err := DecodeKeepaliveEcho(frame); err == nil && ki.IsProbe() {
				return rewrite(to, frame)
			}
			return frame
		}}
	}
}

// allFullLiar claims on every probe that its subtree holds every
// generation there is.
var allFullLiar = probeRewriter(func(_ string, frame []byte) []byte {
	return appendReport(frame[:keepaliveEchoLen:keepaliveEchoLen], genSet{low: ^uint32(0)})
})

// feedbackOverlay joins 20 nodes at k=16, d=4 to a fresh session whose
// source is paced at interval (0 = unpaced), the i-th behind wrap(i) when
// that is non-nil, and returns the session and its nodes in join order.
func feedbackOverlay(t *testing.T, content []byte, interval time.Duration, wrap func(i int) func(transport.Endpoint) transport.Endpoint) (*session, []*Node) {
	t.Helper()
	s, ctx := newPacedSession(t, content, 16, 4, interval)
	nodes := make([]*Node, 20)
	for i := range nodes {
		var w func(transport.Endpoint) transport.Endpoint
		if wrap != nil {
			w = wrap(i)
		}
		nodes[i] = joinNode(t, s, ctx, fmt.Sprintf("fb-%02d", i), NodeConfig{
			ComplaintTimeout: 200 * time.Millisecond,
			Seed:             int64(300 + i),
		}, w)
	}
	return s, nodes
}

// requireContent waits for every node but the skipped ones to decode the
// session's content byte for byte.
func requireContent(t *testing.T, s *session, nodes []*Node, skip map[int]bool) {
	t.Helper()
	for i, n := range nodes {
		if skip[i] {
			continue
		}
		waitComplete(t, n, 60*time.Second)
		got, err := n.Content()
		if err != nil || !bytes.Equal(got, s.content) {
			t.Fatalf("node %d: wrong content (err %v)", i, err)
		}
	}
}

// coveredBy returns the nodes joined after node i whose every thread is
// one of node i's: all their inflow passes through it.
func coveredBy(nodes []*Node, i int) []int {
	held := map[int]bool{}
	nodes[i].mu.Lock()
	for _, r := range nodes[i].table {
		held[r.th] = r.held
	}
	nodes[i].mu.Unlock()
	var out []int
	for j := i + 1; j < len(nodes); j++ {
		nodes[j].mu.Lock()
		all := nodes[j].degreeLocked() > 0
		for _, r := range nodes[j].table {
			all = all && (!r.held || held[r.th])
		}
		nodes[j].mu.Unlock()
		if all {
			out = append(out, j)
		}
	}
	return out
}

// TestFeedbackLiarCostsOnlyItsThreads: a node whose every probe claims
// that its subtree holds every generation is believed, so its parents
// (the source among them) send it nothing more on its threads. That is
// all the lie buys: every honest node still decodes the content exactly,
// since each also hears threads that do not pass through the liar. A
// node whose every thread passed through the liar would starve, as it
// would behind any relay that forwards nothing, so the test first checks
// that the overlay holds none.
func TestFeedbackLiarCostsOnlyItsThreads(t *testing.T) {
	t.Parallel()
	liarCostsOnlyItsThreads(t, 0)
}

// TestFeedbackPacedLiarCostsOnlyItsThreads is the liar against a paced
// source, which streams in order and skips what the liar's threads
// report full.
func TestFeedbackPacedLiarCostsOnlyItsThreads(t *testing.T) {
	t.Parallel()
	liarCostsOnlyItsThreads(t, time.Millisecond)
}

func liarCostsOnlyItsThreads(t *testing.T, interval time.Duration) {
	const liar = 6
	s, nodes := feedbackOverlay(t, randContent(16<<10), interval, func(i int) func(transport.Endpoint) transport.Endpoint {
		if i == liar {
			return allFullLiar
		}
		return nil
	})
	if covered := coveredBy(nodes, liar); len(covered) > 0 {
		t.Fatalf("nodes %v sit wholly behind the liar; the claim needs an overlay with a path around it", covered)
	}
	requireContent(t, s, nodes, map[int]bool{liar: true})
	// The lie stops the liar's inflow: once its parents believe it, no
	// data frame reaches it.
	before, _ := nodes[liar].Stats()
	waitFor(t, 10*time.Second, "the liar's inflow to stop", func() bool {
		time.Sleep(100 * time.Millisecond)
		now, _ := nodes[liar].Stats()
		stopped := now == before
		before = now
		return stopped
	})
}

// TestFeedbackSilentProberKeepsContent: a node that stops probing its
// parents once the first ten nodes have decoded leaves them holding its
// last report, which by then says its subtree holds everything. It still
// beats to its children. Ten more nodes then join, some of them below it;
// every honest node, the silent one included, still decodes the content
// exactly.
func TestFeedbackSilentProberKeepsContent(t *testing.T) {
	t.Parallel()
	silentProberKeepsContent(t, 0, false)
}

// TestFeedbackPacedSilentProberKeepsContent is the same against a paced
// source.
func TestFeedbackPacedSilentProberKeepsContent(t *testing.T) {
	t.Parallel()
	silentProberKeepsContent(t, time.Millisecond, false)
}

// TestFeedbackPacedSilentFromStartKeepsContent: a node that never probes
// its parents keeps every report on its threads from marking anything
// full, since each parent folds in its empty report, while the source
// hears reports on the other threads and measures a lag from them. The
// paced source must still stream: the threads whose reports close
// nothing re-send what they parked, but never so often that the
// generations after it stop, so every honest node decodes.
func TestFeedbackPacedSilentFromStartKeepsContent(t *testing.T) {
	t.Parallel()
	silentProberKeepsContent(t, time.Millisecond, true)
}

// silentProberKeepsContent runs the silent prober against a source paced
// at interval (0 = unpaced); the prober is silent from the start, or
// once the first ten nodes have decoded.
func silentProberKeepsContent(t *testing.T, interval time.Duration, fromStart bool) {
	content := randContent(16 << 10)
	s, ctx := newPacedSession(t, content, 16, 4, interval)
	// A probe goes up to a parent unless the node has sent its
	// destination data, which makes the destination a child.
	var mu sync.Mutex
	silent := fromStart
	children := map[string]bool{}
	quiet := func(ep transport.Endpoint) transport.Endpoint {
		return &adversary{Endpoint: ep, rewrite: func(to string, frame []byte) []byte {
			mu.Lock()
			defer mu.Unlock()
			if IsData(frame) {
				children[to] = true
			} else if ki, err := DecodeKeepaliveEcho(frame); err == nil && ki.IsProbe() && silent && !children[to] {
				return nil
			}
			return frame
		}}
	}
	nodes := make([]*Node, 20)
	join := func(i int) {
		var wrap func(transport.Endpoint) transport.Endpoint
		if i == 3 {
			wrap = quiet
		}
		nodes[i] = joinNode(t, s, ctx, fmt.Sprintf("sp-%02d", i), NodeConfig{
			ComplaintTimeout: 200 * time.Millisecond,
			Seed:             int64(500 + i),
		}, wrap)
	}
	for i := 0; i < 10; i++ {
		join(i)
	}
	requireContent(t, s, nodes[:10], nil)
	// Let the full reports climb, then silence the prober.
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	silent = true
	mu.Unlock()
	for i := 10; i < 20; i++ {
		join(i)
	}
	requireContent(t, s, nodes, nil)
}

// TestFeedbackDecodedOverlayGoesQuiet: once all 20 nodes of an overlay
// have decoded, their reports climb every thread and the data plane goes
// quiet — the source and every parent send no data — while keepalives go
// on, so no node complains about a silent parent and the tracker repairs
// nothing. It does not run in parallel: quiet threads prove their
// parents alive by keepalives alone, and a host loaded enough to stall a
// parent's clock for a complaint timeout would fail it for that.
func TestFeedbackDecodedOverlayGoesQuiet(t *testing.T) {
	s, nodes := feedbackOverlay(t, randContent(16<<10), 0, nil)
	requireContent(t, s, nodes, nil)
	received := func() (total int) {
		for _, n := range nodes {
			r, _ := n.Stats()
			total += r
		}
		return total
	}
	complaints := func() (total uint64) {
		for _, n := range nodes {
			n.mu.Lock()
			total += n.complaintsSent
			n.mu.Unlock()
		}
		return total
	}
	last := received()
	waitFor(t, 20*time.Second, "the data plane to go quiet", func() bool {
		time.Sleep(100 * time.Millisecond)
		now := received()
		quiet := now == last
		last = now
		return quiet
	})
	// Two complaint timeouts of quiet: no data, no complaint, no repair.
	drainEvents := func() (repaired []string) {
		for {
			select {
			case ev := <-s.tracker.Events():
				if ev.Kind == "repair" {
					repaired = append(repaired, ev.Addr)
				}
			default:
				return repaired
			}
		}
	}
	t.Logf("repairs before the quiet window: %v", drainEvents())
	c0 := complaints()
	time.Sleep(400 * time.Millisecond)
	if now := received(); now != last {
		t.Fatalf("%d data frames reached a decoded overlay", now-last)
	}
	if c := complaints() - c0; c != 0 {
		t.Fatalf("%d complaints from a decoded overlay whose parents went quiet", c)
	}
	if r := drainEvents(); len(r) > 0 {
		t.Fatalf("repairs of %v in a decoded overlay", r)
	}
}

// TestFeedbackEarlyProbeRule pins when a node probes a parent early: the
// first time, then only once its report marks full an eighth of the slots
// the last one left open (at least one), when its first open slot (the
// low-water mark) rises, when a reset below takes back a slot the last
// one marked full, or when the parent changes.
func TestFeedbackEarlyProbeRule(t *testing.T) {
	t.Parallel()
	n := NewNode(&emitCounter{}, NodeConfig{})
	n.joined, n.totalGens = true, 256
	n.done = make([]uint64, 4)
	n.table = []heldThread{{th: 0, held: true, parent: "parent"}}
	r := &n.table[0]
	decode := func(slots ...int) {
		for _, slot := range slots {
			n.done[slot>>6] |= 1 << (slot & 63)
		}
	}
	span := func(from, to int) (slots []int) {
		for slot := from; slot < to; slot++ {
			slots = append(slots, slot)
		}
		return slots
	}
	early := func() bool { return len(n.probesLocked(nil, true)) == 1 }
	steps := []struct {
		what string
		do   func()
		want bool
	}{
		{"first report", func() {}, true},
		{"nothing new", func() {}, false},
		{"31 of 256 open newly full above the mark", func() { decode(span(1, 32)...) }, false},
		{"32 of 256 open newly full above the mark", func() { decode(32) }, true},
		{"the mark rises by one slot", func() { decode(0) }, true},
		{"one slot above the mark", func() { decode(40) }, false},
		{"the mark rises to the next gap", func() { decode(33) }, true},
		{"a child that holds everything", func() {
			r.down = downstream{child: "child", full: genSet{low: ^uint32(0)}}
		}, false},
		{"the child's report reset", func() { r.down.full = genSet{} }, true},
		{"the child's report back", func() { r.down.full = genSet{low: ^uint32(0)} }, true},
		{"down to 3 open", func() { decode(span(34, 253)...) }, true},
		{"one more of 3", func() { decode(253) }, true},
		{"a new parent", func() { r.parent = "parent-2" }, true},
	}
	for _, s := range steps {
		s.do()
		if got := early(); got != s.want {
			t.Fatalf("%s: early probe %v, want %v", s.what, got, s.want)
		}
	}
}
