package protocol

import (
	"context"
	"fmt"
	"testing"

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
// about none: the encoded packet and the frame buffer are pooled and
// recycled once Send returns, Run copies the routing table into a buffer
// of its own, and every frame is sent on Run's own context. What is left
// is each run's setup, its context and Run's buffers (0.001 objects a
// frame on 2-CPU x86-64; a per-send deadline context cost 4, a routing
// copy per round 0.13 at 8 threads).
func TestSourceEmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	const threads, frames = 8, 4096
	params := rlnc.Params{Field: gf.F256, GenSize: 16, PacketSize: 1024}
	ep := &emitCounter{limit: frames}
	source, err := NewSource(ep, threads, params, randContent(4*16*1024), 1)
	if err != nil {
		t.Fatal(err)
	}
	source.Systematic = true
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
}
