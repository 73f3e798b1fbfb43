// Command benchmark is the repository's one performance instrument: five
// named workloads, end-to-end metrics with regression bounds, per-layer
// metrics and a traced run. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract.
//
//	bash benchmark/run.sh --seed 1                 # every workload, end-to-end metrics
//	bash benchmark/run.sh --seed 1 --trace 1       # every workload, per-layer metrics + span files
//	bash benchmark/run.sh --workload udp-lossy --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --selfcheck              # two sets of runs must agree within the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"ncast/internal/gf"
)

// output is the last line a run prints: the contract with the driver.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (built outside a git checkout)"
}

func main() {
	var (
		workloads = flag.String("workload", "", "comma-separated workload names; empty runs all five")
		seed      = flag.Int64("seed", 1, "drives everything generated: content, loss coins, client seeds, crash set")
		seconds   = flag.Float64("seconds", 0, "measured time per workload (default 20, or 1 at -scale tiny)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, spans written to -out")
		scale     = flag.String("scale", "full", "full, or tiny for a smoke pass whose numbers mean nothing")
		outDir    = flag.String("out", "benchmark/out", "directory for trace files")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice, in alternate order, and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if *seconds <= 0 {
		*seconds = 20
		if *scale == "tiny" {
			*seconds = 1
		}
	}
	all := specs(*scale)
	var chosen []spec
	if *workloads == "" {
		chosen = all
	}
	for _, name := range strings.Split(*workloads, ",") {
		if name == "" {
			continue
		}
		found := false
		for _, w := range all {
			if w.name == name {
				chosen, found = append(chosen, w), true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			os.Exit(2)
		}
	}

	fmt.Printf("ncast benchmark: seed=%d seconds=%g trace=%d scale=%s nproc=%d GOMAXPROCS=%d %s gf=%s commit=%s\n",
		*seed, *seconds, *trace, *scale, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gf.Accel(), commit())
	valid := true
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		// More runnable threads than CPUs measures the kernel's scheduler.
		fmt.Printf("INVALID RUN: GOMAXPROCS=%d exceeds nproc=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		valid = false
	}

	if *selfcheck {
		if !runSelfcheck(chosen, *seed, *seconds) || !valid {
			os.Exit(1)
		}
		return
	}

	ok := valid
	for _, w := range chosen {
		var res runResult
		defs := endToEnd
		if *trace != 0 {
			defs = perLayer
			res = w.runTraced(*seed, *seconds, *outDir)
		} else {
			res = w.runUntraced(*seed, *seconds)
		}
		fmt.Printf("workload %s — %s\n", w.name, w.loop)
		for _, l := range res.lines {
			fmt.Println(l)
		}
		share := float64(res.failed) / float64(max(res.attempted, 1))
		fmt.Printf("  %-28s %14.6f        (%d failed of %d attempted)\n", "failed_share", share, res.failed, res.attempted)
		for _, f := range res.failures {
			fmt.Println("  FAILED:", f)
		}
		out := output{Correct: valid && res.failed == 0, Attempted: max(res.attempted, 1), Failed: res.failed,
			Metrics: map[string]metricValue{}}
		for _, m := range defs {
			out.Metrics[m.Name] = metricValue{Value: res.values[m.Name], Unit: m.Unit}
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && out.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runSelfcheck is the A/A test: the same build measured twice must agree
// with itself within the bounds it would hold a change to.
func runSelfcheck(chosen []spec, seed int64, seconds float64) bool {
	first := map[string]runResult{}
	second := map[string]runResult{}
	for _, w := range chosen {
		first[w.name] = w.runUntraced(seed, seconds)
		fmt.Printf("selfcheck: first run of %s done\n", w.name)
	}
	for i := len(chosen) - 1; i >= 0; i-- {
		second[chosen[i].name] = chosen[i].runUntraced(seed, seconds)
		fmt.Printf("selfcheck: second run of %s done\n", chosen[i].name)
	}
	ok := true
	fmt.Printf("%-14s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, w := range chosen {
		a, b := first[w.name], second[w.name]
		if a.failed+b.failed > 0 {
			fmt.Printf("%-14s failed operations: %v %v\n", w.name, a.failures, b.failures)
			ok = false
		}
		for _, m := range endToEnd {
			x, y := a.values[m.Name], b.values[m.Name]
			// How much worse the worse of the two is, as a share of the
			// other: order must not matter in an A/A test.
			lo, hi := min(x, y), max(x, y)
			worse := 0.0
			if lo > 0 {
				worse = (hi - lo) / lo
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %7.1f%% %5.0f%% %s\n", w.name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
	}
	if ok {
		fmt.Println("selfcheck ok: every end-to-end metric agrees with itself within its bound")
	} else {
		fmt.Println("selfcheck FAILED")
	}
	return ok
}
