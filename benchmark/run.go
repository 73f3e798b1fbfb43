package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ncast/internal/obs"
)

// runResult is one workload's run: the metrics it reports by name, the
// operation counts behind the failure share, and the lines printed for a
// human.
type runResult struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	lines             []string
}

func (r *runResult) printf(format string, args ...interface{}) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *runResult) absorb(c cycleResult) {
	r.attempted += c.attempted
	r.failed += c.failed
	r.failures = append(r.failures, c.failures...)
}

// serverSeed is the seed of every cycle's server. It picks each joining
// node's threads and so the overlay's shape, which is part of the
// workload, not of its inputs: with three receivers the shape alone moves
// udp-lossy's rate by a third, and left to -seed that was the largest
// source of run-to-run spread. So every cycle of every run is pushed
// through the same overlay, and -seed changes only what is pushed.
const serverSeed = 1

// cycle runs the i-th cycle of a run (0 is the warm-up). Everything
// generated for it — content, loss coins, client seeds, crash set —
// follows from -seed.
func (w spec) cycle(seed int64, i int, tr *tracer, noObs, last bool) cycleResult {
	runtime.GC() // every cycle starts from a collected heap, not from its predecessor's garbage
	inputSeed := seed*1_000_003 + int64(i) + 1
	if w.churn {
		return w.churnCycle(inputSeed, tr, noObs, last)
	}
	return w.dataCycle(inputSeed, tr, noObs)
}

// minCycles is the fewest measured cycles a run reports medians over.
const minCycles = 3

// measure runs one discarded warm-up cycle (caches fill, the heap finds
// its size, lazy tables build) and then measured cycles until budget is
// used, at least minCycles. tracerFor gives the tracer of measured cycle
// i, nil for an untraced one. The last measured cycle is told it is the
// last, which is when join-churn does its crash drill.
func (w spec) measure(seed int64, budget time.Duration, res *runResult, tracerFor func(i int) *tracer) []cycleResult {
	t := time.Now()
	res.absorb(w.cycle(seed, 0, nil, false, false))
	estimate := time.Since(t)
	var cycles []cycleResult
	begin := time.Now()
	for i := 0; ; i++ {
		used := time.Since(begin)
		if i > 0 {
			estimate = used / time.Duration(i)
		}
		last := i >= minCycles-1 && used+2*estimate > budget
		c := w.cycle(seed, i+1, tracerFor(i), false, last)
		res.absorb(c)
		cycles = append(cycles, c)
		if last {
			return cycles
		}
	}
}

// endToEndOf reduces measured cycles to the end-to-end metrics: each is
// the median over cycles of the cycle's own figure, so one slow cycle
// moves a quartile, not the result.
func (w spec) endToEndOf(cycles []cycleResult, res *runResult) {
	var rate, p50, p90, setup []float64
	samples, used := 0, 90.0
	for _, c := range cycles {
		if c.elapsed > 0 {
			rate = append(rate, float64(c.ops)/c.elapsed.Seconds())
		}
		setup = append(setup, c.setup.Seconds())
		if len(c.delaysMs) == 0 {
			continue
		}
		p50 = append(p50, obs.Quantile(c.delaysMs, 0.5))
		var tailMs float64
		tailMs, used = tail(c.delaysMs, 90)
		p90 = append(p90, tailMs)
		samples += len(c.delaysMs)
	}
	put := func(name, unit string, vals []float64, note string) {
		q1, med, q3 := quartiles(vals)
		res.values[name] = med
		res.printf("  %-28s %14.4f %-6s q1 %.4f  q3 %.4f  n=%d cycles%s", name, med, unit, q1, q3, len(vals), note)
	}
	put("ops_per_s", "1/s", rate, "")
	put("op_delay_p50_ms", "ms", p50, fmt.Sprintf("  (%d delay samples)", samples))
	put("op_delay_p90_ms", "ms", p90, fmt.Sprintf("  (reported at p%g: highest percentile with >=10 samples beyond it per cycle)", used))
	put("setup_s", "s", setup, "")

	// The same figures under the names a reader of the paper expects.
	if w.churn {
		res.printf("  as: joins_per_s %.0f, leaves_per_s %.0f (flash crowd and good-bye burst); open loop at %d joins/s: join p50 %.3f ms, p99 %.3f ms, generator lateness p99 %.3f ms",
			medianOf(cycles, "protocol.joins_per_s"), medianOf(cycles, "protocol.leaves_per_s"), w.openRate,
			medianOf(cycles, "swarm.open_join_p50_ms"), medianOf(cycles, "swarm.open_join_p99_ms"), medianOf(cycles, "swarm.gen_lateness_ms"))
	} else {
		genBytes := float64(w.genSize * w.pktSize)
		res.printf("  as: goodput_mb_s %.2f (verified content bytes x receivers / time), gen_delay_p50_ms %.1f, gen_delay_p90_ms %.1f",
			res.values["ops_per_s"]*genBytes/1e6, res.values["op_delay_p50_ms"], res.values["op_delay_p90_ms"])
	}
}

// medianOf is the median over cycles of one layer counter, over the
// cycles that have it.
func medianOf(cycles []cycleResult, key string) float64 {
	var vals []float64
	for _, c := range cycles {
		if v, ok := c.layer[key]; ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

func medianElapsed(cycles []cycleResult) float64 {
	var vals []float64
	for _, c := range cycles {
		vals = append(vals, c.elapsed.Seconds())
	}
	return median(vals)
}

// runUntraced is the run end-to-end metrics come from.
func (w spec) runUntraced(seed int64, seconds float64) runResult {
	res := runResult{values: map[string]float64{}}
	budget := time.Duration(seconds * float64(time.Second))
	cycles := w.measure(seed, budget, &res, func(int) *tracer { return nil })
	w.endToEndOf(cycles, &res)
	return res
}

// runTraced is the run per-layer metrics come from: the layers measured
// in isolation, then the workload with every other measured cycle
// traced, then the pipeline replay. It writes the spans of the first
// traced cycle and of the replay to outDir.
func (w spec) runTraced(seed int64, seconds float64, outDir string) runResult {
	res := runResult{values: map[string]float64{}}
	for _, m := range perLayer {
		res.values[m.Name] = 0
	}
	budget := time.Duration(seconds * float64(time.Second))
	if err := w.layerBench(seed, budget/200, res.values); err != nil {
		res.attempted++
		res.failed++
		res.failures = append(res.failures, "layer bench: "+err.Error())
	}

	var before, after runtime.MemStats
	var first *tracer
	runtime.ReadMemStats(&before)
	cycles := w.measure(seed, budget*2/3, &res, func(i int) *tracer {
		if i%2 == 0 {
			return nil
		}
		tr := newTracer()
		if first == nil {
			first = tr
		}
		return tr
	})
	runtime.ReadMemStats(&after)
	var plain, traced []cycleResult
	frames := 0.0
	for i, c := range cycles {
		frames += c.frames
		if i%2 == 0 {
			plain = append(plain, c)
		} else {
			traced = append(traced, c)
		}
	}
	for _, c := range cycles {
		for key := range c.layer {
			res.values[key] = medianOf(cycles, key)
		}
	}
	if len(traced) > 0 && medianElapsed(plain) > 0 {
		res.values["trace.overhead_ratio"] = medianElapsed(traced) / medianElapsed(plain)
	}
	bare := w.cycle(seed, len(cycles)+1, nil, true, false)
	res.absorb(bare)
	if bare.elapsed > 0 {
		res.values["obs.overhead_ratio"] = medianElapsed(plain) / bare.elapsed.Seconds()
	}
	if frames > 0 {
		res.values["runtime.allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / frames
	}
	res.values["runtime.peak_rss_mb"] = peakRSSMB()
	res.values["runtime.gc_pause_p99_ms"] = gcPauseP99(&after)

	rt := newTracer()
	ops, err := w.replay(seed, rt)
	res.attempted++
	if err != nil {
		res.failed++
		res.failures = append(res.failures, err.Error())
	}
	replaySpans := rt.snapshot()
	self := layerSelf(replaySpans)
	if ops > 0 {
		for _, layer := range []string{"rlnc", "protocol", "transport", "core"} {
			res.values["trace."+layer+"_self_ns"] = float64(self[layer]) / float64(ops)
		}
	}

	for _, m := range perLayer {
		res.printf("  %-28s %14.4f %s", m.Name, res.values[m.Name], m.Unit)
	}
	res.printf("  replay: %d operations on one goroutine; self time per operation by layer: rlnc %.0f ns, protocol %.0f ns, transport %.0f ns, core %.0f ns, harness %.0f ns",
		ops, res.values["trace.rlnc_self_ns"], res.values["trace.protocol_self_ns"], res.values["trace.transport_self_ns"],
		res.values["trace.core_self_ns"], float64(self["replay"])/float64(max(ops, 1)))
	res.printf("  tracing overhead: traced cycles took %.3fx the untraced ones (%d traced, %d untraced)",
		res.values["trace.overhead_ratio"], len(traced), len(plain))

	// The file holds one whole traced cycle and the head of the replay;
	// the rest of the replay repeats the same calls.
	spans := first.snapshot()
	offset := len(spans)
	if len(replaySpans) > 12000 {
		replaySpans = replaySpans[:12000]
	}
	for _, s := range replaySpans {
		s.ID += offset
		if s.Parent != 0 {
			s.Parent += offset
		}
		spans = append(spans, s)
	}
	if path, err := writeTrace(outDir, w.name, seed, spans); err != nil {
		res.printf("  trace file not written: %v", err)
	} else {
		res.printf("  wrote %d spans to %s", len(spans), path)
	}
	return res
}

// peakRSSMB reads the process's peak resident set from the kernel; 0
// where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// gcPauseP99 reports the tail of the collector's recent stop-the-world
// pauses under the same support rule as every other percentile here.
func gcPauseP99(ms *runtime.MemStats) float64 {
	n := int(ms.NumGC)
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	pauses := make([]float64, n)
	for i := range pauses {
		pauses[i] = float64(ms.PauseNs[i]) / 1e6
	}
	v, _ := tail(pauses, 99)
	return v
}
