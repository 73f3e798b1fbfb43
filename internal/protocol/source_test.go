package protocol

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/rlnc"
)

// emitCounter is an Endpoint that swallows the source's frames: it
// counts sends and cancels the run once limit of them have gone out.
type emitCounter struct {
	sent, limit int
	cancel      context.CancelFunc
}

func (e *emitCounter) Addr() string { return "source" }

func (e *emitCounter) Send(ctx context.Context, to string, msg []byte) error {
	e.sent++
	if e.sent == e.limit {
		e.cancel()
	}
	return nil
}

func (e *emitCounter) Recv(ctx context.Context) (string, []byte, error) {
	<-ctx.Done()
	return "", nil, ctx.Err()
}

func (e *emitCounter) Close() error { return nil }

// TestSourceEmitAllocs pins the source's per-frame allocations at
// about none, unpaced and paced: the encoded packet and the frame buffer
// are pooled and recycled once Send returns, Run copies the routing table
// into a buffer of its own, every frame is sent on Run's own context, and
// a paced run keeps its rounds on one timer. What is left is each run's
// setup, its context and Run's buffers, the paced schedule included
// (0.001 objects a frame on 2-CPU x86-64; a per-send deadline context
// cost 4, a routing copy per round 0.13 at 8 threads, a timer per paced
// round 0.13).
func TestSourceEmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	for _, interval := range []time.Duration{0, time.Microsecond} {
		t.Run(fmt.Sprintf("interval=%v", interval), func(t *testing.T) {
			const threads, frames = 8, 4096
			params := rlnc.Params{Field: gf.F256, GenSize: 16, PacketSize: 1024}
			ep := &emitCounter{limit: frames}
			source, err := NewSource(ep, threads, params, randContent(4*16*1024), 1)
			if err != nil {
				t.Fatal(err)
			}
			source.Systematic = true
			source.RoundInterval, source.share = interval, 4
			for th := 0; th < threads; th++ {
				source.SetChild(th, fmt.Sprintf("child-%d", th))
			}
			run := func() {
				ctx, cancel := context.WithCancel(context.Background())
				ep.sent, ep.cancel = 0, cancel
				_ = source.Run(ctx) // returns the cancellation
				cancel()
			}
			perFrame := testing.AllocsPerRun(1, run) / float64(ep.sent)
			if perFrame > 0.05 {
				t.Fatalf("source allocates %.3f objects per emitted frame, want <= 0.05", perFrame)
			}
		})
	}
}

// TestNextRound pins the paced deadline: one interval after the last
// round's deadline, so the time a round's sends take does not stretch the
// next; a loop that fell more than an interval behind starts its next
// round at once and does not burst to catch up.
func TestNextRound(t *testing.T) {
	t.Parallel()
	t0 := time.Unix(100, 0)
	ms := time.Millisecond
	for _, c := range []struct {
		what      string
		next, now time.Time
		want      time.Time
	}{
		{"sends took a fraction of the interval", t0, t0.Add(ms / 10), t0.Add(ms)},
		{"sends outlasted the deadline", t0, t0.Add(3 * ms / 2), t0.Add(ms)},
		{"exactly one interval behind", t0, t0.Add(2 * ms), t0.Add(ms)},
		{"more than one interval behind", t0, t0.Add(5 * ms), t0.Add(5 * ms)},
	} {
		if got := nextRound(c.next, c.now, ms); !got.Equal(c.want) {
			t.Errorf("%s: next round at %v, want %v", c.what, got.Sub(t0), c.want.Sub(t0))
		}
	}
}

// planStep drives a streamPlan by hand: one round at time now
// (nanoseconds) with the given routing, returning every thread's pick
// (-1 for a hanging thread).
func planStep(p *streamPlan, children []string, reps []genSet, now int64) []int {
	down := make([]downstream, len(children))
	for th := range down {
		down[th] = downstream{child: children[th], full: reps[th]}
	}
	p.begin(down, now)
	picks := make([]int, len(p.threads))
	for th := range picks {
		picks[th] = -1
		if children[th] != "" {
			picks[th] = p.next(th, reps[th], now)
		}
	}
	return picks
}

// routed returns a routing table with a child on every one of n threads.
func routed(n int) []string {
	children := make([]string, n)
	for th := range children {
		children[th] = fmt.Sprintf("child-%d", th)
	}
	return children
}

// fullSet is the report that marks exactly slots full.
func fullSet(n int, slots ...int) genSet {
	words := make([]uint64, (n+63)/64)
	for _, g := range slots {
		words[g>>6] |= 1 << (g & 63)
	}
	return foldWords(words)
}

// TestStreamPlanInOrder: with no report, every thread gives generation 0
// its share, then generation 1, and so on, in lockstep; once every
// generation has had its share, and with no lag measured, each thread
// sweeps its parked generations oldest first, so a source without
// feedback still finishes.
func TestStreamPlanInOrder(t *testing.T) {
	t.Parallel()
	const threads, gens, share = 3, 5, 2
	p := newStreamPlan(threads, gens, share)
	children, reps := routed(threads), make([]genSet, threads)
	for round := 0; round < gens*share+2*gens; round++ {
		want := round / share // the fresh generation
		if round >= gens*share {
			want = (round - gens*share) % gens // the sweep
		}
		for th, g := range planStep(p, children, reps, int64(round+1)) {
			if g != want {
				t.Fatalf("round %d thread %d: generation %d, want %d", round, th, g, want)
			}
		}
	}
}

// TestStreamPlanLockstep: a thread never sends a generation its own
// report marks full, and skipping does not let it run ahead: no thread
// starts a generation before every thread with a child has started the
// one before it. A hanging thread keeps pace, and once a child clips on
// it re-sends what it passed while hanging.
func TestStreamPlanLockstep(t *testing.T) {
	t.Parallel()
	const threads, gens, share = 3, 8, 2
	p := newStreamPlan(threads, gens, share)
	children := routed(threads)
	children[2] = "" // thread 2 hangs for the first rounds
	reps := []genSet{{}, fullSet(gens, 0, 2, 4, 6), {}}
	started := make([][]int, threads) // per thread, the round each generation was first sent
	for th := range started {
		started[th] = make([]int, gens)
		for g := range started[th] {
			started[th][g] = -1
		}
	}
	var late []int // thread 2's frames once its child arrived
	for round := 0; round < 60; round++ {
		if round == 6 {
			children[2] = "child-2"
		}
		for th, g := range planStep(p, children, reps, int64(round+1)) {
			switch {
			case g < 0:
				continue
			case th == 1 && g%2 == 0:
				t.Fatalf("round %d: thread 1 sent generation %d, which its report marks full", round, g)
			case th == 2:
				late = append(late, g)
			}
			if started[th][g] < 0 {
				started[th][g] = round
			}
		}
	}
	for th := range started {
		for g := 1; g < gens; g++ {
			r := started[th][g]
			if r < 0 || th == 1 && g%2 == 0 {
				continue
			}
			for other := 0; other < 2; other++ { // the threads routed from the start
				if prev := started[other][g-1]; prev < 0 && !(other == 1 && (g-1)%2 == 0) || prev > r {
					t.Fatalf("thread %d started generation %d in round %d, before thread %d started %d (round %d)",
						th, g, r, other, g-1, prev)
				}
			}
		}
	}
	if late[0] < 2 || !slices.Contains(late, 0) || !slices.Contains(late, 1) {
		t.Fatalf("thread 2 sent %v once routed: want the stream's current generation first, then 0 and 1", late)
	}
}

// TestStreamPlanResendWhenDue: once a report has given a thread its lag,
// a parked generation its report leaves open is sent again only when
// 2 lags have passed since the thread's last frame of it, one frame at a
// time, and never two due re-sends in a row while a fresh generation
// waits: fresh generations fill the rounds between; the lag moves by an
// eighth of each new sample, and a generation completed by a re-send
// gives none.
func TestStreamPlanResendWhenDue(t *testing.T) {
	t.Parallel()
	const gens, share = 64, 1
	p := newStreamPlan(1, gens, share)
	children, reps := routed(1), make([]genSet, 1)
	at := func(ms int64) int { return planStep(p, children, reps, ms*1e6)[0] }
	for ms := int64(1); ms <= 3; ms++ {
		if g := at(ms); g != int(ms)-1 {
			t.Fatalf("at %d ms: generation %d, want fresh %d", ms, g, ms-1)
		}
	}
	// Generation 0, last sent at 1 ms, is reported full at 11 ms: the
	// lag is 10 ms, so 1 and 2 fall due at 22 and 23 ms; 2 waits for
	// fresh 14 to go first.
	reps[0] = fullSet(gens, 0)
	for ms := int64(11); ms <= 21; ms++ {
		if g := at(ms); g != int(ms)-8 {
			t.Fatalf("at %d ms: generation %d, want fresh %d", ms, g, ms-8)
		}
	}
	if lag := p.threads[0].lag; lag != 10e6 {
		t.Fatalf("lag %d ns, want 10 ms", lag)
	}
	for ms, want := range []int{22: 1, 23: 14, 24: 2, 25: 15} {
		if ms >= 22 {
			if g := at(int64(ms)); g != want {
				t.Fatalf("at %d ms: generation %d, want %d", ms, g, want)
			}
		}
	}
	// Generation 3, sent once at 11 ms, is reported full at 26 ms with
	// the re-sent 1: the lag moves to 10 + (15-10)/8 ms.
	reps[0] = fullSet(gens, 0, 1, 3)
	at(26)
	if lag, want := p.threads[0].lag, int64(10e6+(15e6-10e6)/8); lag != want {
		t.Fatalf("lag %d ns, want %d", lag, want)
	}
}

// TestStreamPlanReopens: a report that no longer marks full what the last
// one did (a new child, or a reset below) parks those generations again.
// Once every generation has had its share, a parked one goes out again a
// lag after its last frame, not at once, and one re-opened and closed
// again gives no lag sample.
func TestStreamPlanReopens(t *testing.T) {
	t.Parallel()
	const gens = 4
	p := newStreamPlan(1, gens, 1)
	children, reps := routed(1), make([]genSet, 1)
	at := func(ms int64) int { return planStep(p, children, reps, ms*1e6)[0] }
	for ms := int64(1); ms <= 4; ms++ {
		at(ms)
	}
	reps[0] = fullSet(gens, 0, 1, 2, 3) // everything full at 5 ms: lag 1-4 ms
	if g := at(5); g != -1 {
		t.Fatalf("everything reported full, yet generation %d was sent", g)
	}
	lag := p.threads[0].lag
	reps[0] = genSet{} // the child changed at 6 ms
	if g := at(6); g != -1 {
		t.Fatalf("a re-opened generation went out at once: %d", g)
	}
	reps[0] = fullSet(gens, 0) // the new child holds generation 0
	var sent []int
	for ms := int64(7); ms < 6+lag/1e6+4; ms++ {
		g := at(ms)
		if g >= 0 && ms*1e6 < 6e6+lag {
			t.Fatalf("at %d ms, within a lag of %d ns of its re-opening, generation %d went out", ms, lag, g)
		}
		if g >= 0 {
			sent = append(sent, g)
		}
	}
	if fmt.Sprint(sent) != "[1 2 3]" {
		t.Fatalf("re-opened generations sent %v, want [1 2 3] a lag after their re-opening", sent)
	}
	if p.threads[0].lag != lag {
		t.Fatalf("a re-opened generation moved the lag from %d to %d", lag, p.threads[0].lag)
	}
}

// TestStreamPlanSilentThreadKeepsPace: thread 0's report marks each
// generation full a millisecond after its frame, which gives a lag, while
// thread 1's report stays empty (a node below it never probes), so
// everything thread 1 parks stays open and falls due again and again.
// Its re-sends must not take every round from its fresh generations: it
// sends at most one due re-send per fresh frame, so it keeps advancing,
// and the lockstep lets thread 0 advance with it.
func TestStreamPlanSilentThreadKeepsPace(t *testing.T) {
	t.Parallel()
	const threads, gens = 2, 64
	p := newStreamPlan(threads, gens, 1)
	children, reps := routed(threads), make([]genSet, threads)
	var done []int // thread 0's generations, reported full a round later
	lastFresh, resends := -1, 0
	for round := 0; round < 3*gens; round++ {
		reps[0] = fullSet(gens, done...)
		picks := planStep(p, children, reps, int64(round+1)*1e6)
		if g := picks[0]; g >= 0 {
			done = append(done, g)
		}
		switch g := picks[1]; {
		case g > lastFresh:
			if g != lastFresh+1 {
				t.Fatalf("round %d: thread 1 jumped from generation %d to %d", round, lastFresh, g)
			}
			lastFresh, resends = g, 0
		case g >= 0 && lastFresh < gens-1:
			if resends++; resends > 1 {
				t.Fatalf("round %d: thread 1 re-sent %d times in a row while generation %d waited", round, resends, lastFresh+1)
			}
		}
	}
	if p.lag == 0 {
		t.Fatal("thread 0's reports gave no lag")
	}
	for th := range p.threads {
		if f := p.threads[th].fresh; f != gens {
			t.Fatalf("thread %d stopped at generation %d of %d", th, f, gens)
		}
	}
}

// TestPacedSourceStreamsInOrder runs a paced source on the recorder. No
// report gives a lag, so the order is fixed: each thread gives every
// generation its share of frames in turn, and thread 1 skips the
// generations its child reports full; once every generation has had its
// share each thread sweeps what its report leaves open, so a source
// without feedback still finishes; and a new child on thread 1 re-opens
// what the old child's report had closed.
func TestPacedSourceStreamsInOrder(t *testing.T) {
	t.Parallel()
	const threads = 3
	params := rlnc.Params{Field: gf.F256, GenSize: 4, PacketSize: 16}
	rec := &sendRecorder{}
	source, err := NewSource(rec, threads, params, randContent(6*4*16), 1)
	if err != nil {
		t.Fatal(err)
	}
	source.Systematic = true
	source.RoundInterval, source.share = time.Microsecond, 2
	gens := source.fe.NumGenerations()
	for th := 0; th < threads; th++ {
		source.SetChild(th, fmt.Sprintf("child-%d", th))
	}
	even := func(slot int) bool { return slot%2 == 0 }
	source.observeProbe("child-1", 1, reportFrame(1, gens, even))
	const before = 60 // frames before thread 1's child changes
	rec.onSend = func(n int) {
		if n == before {
			source.SetChild(1, "child-1b")
		}
	}
	perThread := make([][]int, threads)
	reopened := false
	for i, s := range runRecorded(t, source, rec, 150) {
		switch {
		case s.th == 1 && even(s.gen) && i < before:
			t.Fatalf("frame %d: thread 1 sent generation %d, which its child reported full", i, s.gen)
		case s.th == 1 && even(s.gen):
			reopened = true
		case i < before:
			perThread[s.th] = append(perThread[s.th], s.gen)
		}
	}
	var fresh []int
	for g := 0; g < gens; g++ {
		fresh = append(fresh, g, g)
	}
	for th := 0; th < threads; th += 2 {
		if got := perThread[th][:len(fresh)]; fmt.Sprint(got) != fmt.Sprint(fresh) {
			t.Fatalf("thread %d sent %v first, want %v", th, got, fresh)
		}
		for i, g := range perThread[th][len(fresh):] {
			if want := i % gens; g != want {
				t.Fatalf("thread %d sweep frame %d: generation %d, want %d", th, i, g, want)
			}
		}
	}
	var firsts []int
	for _, g := range perThread[1] {
		if !slices.Contains(firsts, g) {
			firsts = append(firsts, g)
		}
	}
	if fmt.Sprint(firsts) != "[1 3 5]" {
		t.Fatalf("thread 1 started generations %v, want [1 3 5]", firsts)
	}
	if !reopened {
		t.Fatal("thread 1 never re-sent what its old child reported full")
	}
}
