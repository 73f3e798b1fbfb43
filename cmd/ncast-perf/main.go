// Command ncast-perf measures the data-plane fast path and writes the
// results as JSON (default BENCH_rlnc.json) so kernel and pipeline
// regressions show up as a diff. It records, per field:
//
//   - bulk-kernel cost (AddSlice / AddMulSlice) for the dispatched
//     implementation and the scalar reference, with the speedup ratio, at
//     the -size payload and at 64 B, where the per-call fixed cost shows;
//   - fused-rows cost: a four-row GF(2^8) dot product through gf.Dot at
//     1 KiB and 64 B, against four single-row AddMulSlice calls;
//   - steady-state codec emit cost (Encoder.Packet, Recoder.Packet) in
//     ns/op and allocs/op — the zero-allocation budget of the pipeline;
//   - whole-file decode throughput, serial FileDecoder vs the
//     generation-sharded ParallelFileDecoder worker pool, as a matrix of
//     worker counts (1/2/4/8) by content size (1–64 MiB);
//   - systematic fast-path throughput: serial decode of a loss-free
//     all-systematic feed, where elimination degenerates to copying.
//
// Usage:
//
//	ncast-perf                 # write BENCH_rlnc.json and print a summary
//	ncast-perf -o results.json # choose the output path
//	ncast-perf -size 8192      # payload bytes for the kernel benchmarks
//	ncast-perf -gate           # regression gate: exit 1 unless the
//	                           # emit paths and the fused rows stay
//	                           # zero-alloc and a 64 B GF(2^8) multiply
//	                           # costs at most half a 1 KiB one
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"ncast/internal/gf"
	"ncast/internal/rlnc"
)

// report is the schema of BENCH_rlnc.json.
type report struct {
	Accel            string          `json:"accel"`
	GOMAXPROCS       int             `json:"gomaxprocs"`
	GoVersion        string          `json:"go_version"`
	SliceBytes       int             `json:"slice_bytes"`
	Kernels          []kernelRow     `json:"kernels"`
	FusedRows        []fusedRow      `json:"fused_rows"`
	Codec            []codecRow      `json:"codec"`
	FileDecode       fileDecodeRow   `json:"file_decode"`
	FileDecodeMatrix []fileDecodeRow `json:"file_decode_matrix"`
	SystematicDecode sysDecodeRow    `json:"systematic_decode"`
}

type kernelRow struct {
	Name    string  `json:"name"`
	Bytes   int     `json:"bytes"`
	NsPerOp float64 `json:"ns_per_op"`
	MBps    float64 `json:"mb_per_s"`
	RefMBps float64 `json:"ref_mb_per_s"`
	Speedup float64 `json:"speedup"`
}

type fusedRow struct {
	Name        string  `json:"name"`
	Rows        int     `json:"rows"`
	Bytes       int     `json:"bytes"`
	NsPerOp     float64 `json:"ns_per_op"`
	RowLoopNs   float64 `json:"row_loop_ns_per_op"`
	Speedup     float64 `json:"speedup"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type codecRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type fileDecodeRow struct {
	ContentBytes int     `json:"content_bytes"`
	Generations  int     `json:"generations"`
	Workers      int     `json:"workers"`
	SerialMBps   float64 `json:"serial_mb_per_s"`
	ParallelMBps float64 `json:"parallel_mb_per_s"`
	Speedup      float64 `json:"speedup"`
}

type sysDecodeRow struct {
	ContentBytes int     `json:"content_bytes"`
	Generations  int     `json:"generations"`
	MBps         float64 `json:"mb_per_s"`
}

// nsPerOp is r.NsPerOp without the truncation to whole nanoseconds, which
// would swamp a ~10 ns kernel call.
func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N <= 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// mbps converts a benchmark over size-byte operations to MB/s.
func mbps(r testing.BenchmarkResult, size int) float64 {
	ns := nsPerOp(r)
	if ns <= 0 {
		return 0
	}
	return float64(size) / ns * 1e9 / 1e6
}

// benchKernel measures one dst/src bulk kernel at the given payload size.
func benchKernel(size int, fn func(dst, src []byte)) testing.BenchmarkResult {
	dst, src := make([]byte, size), make([]byte, size)
	rand.New(rand.NewSource(1)).Read(src)
	return testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			fn(dst, src)
		}
	})
}

const c256 = uint16(0x5A)

// addMul256 is the GF(2^8) multiply-accumulate every coded packet runs.
func addMul256(d, s []byte) { gf.F256.AddMulSlice(d, s, c256) }

func kernelRows(size int) []kernelRow {
	const c65536 = uint16(0x1234)
	cases := []struct {
		name string
		opt  func(dst, src []byte)
		ref  func(dst, src []byte)
	}{
		{"AddSlice(GF2)",
			func(d, s []byte) { gf.F2.AddSlice(d, s) },
			func(d, s []byte) { gf.RefAddSlice(gf.F2, d, s) }},
		{"AddMulSlice(GF256)",
			addMul256,
			func(d, s []byte) { gf.RefAddMulSlice(gf.F256, d, s, c256) }},
		{"AddMulSlice(GF65536)",
			func(d, s []byte) { gf.F65536.AddMulSlice(d, s, c65536) },
			func(d, s []byte) { gf.RefAddMulSlice(gf.F65536, d, s, c65536) }},
	}
	rows := make([]kernelRow, 0, len(cases))
	for _, tc := range cases {
		opt := benchKernel(size, tc.opt)
		ref := benchKernel(size, tc.ref)
		row := kernelRow{Name: tc.name, Bytes: size, NsPerOp: nsPerOp(opt), MBps: mbps(opt, size), RefMBps: mbps(ref, size)}
		if row.RefMBps > 0 {
			row.Speedup = row.MBps / row.RefMBps
		}
		rows = append(rows, row)
	}
	return rows
}

// fusedRows measures a four-row GF(2^8) dot product, dst ^= sum of
// c_i*row_i, through gf.Dot (one pass over dst per four rows where the
// platform has a fused kernel) against four single-row AddMulSlice calls,
// at 1 KiB and at the 64 B tiny-packets payload.
func fusedRows() []fusedRow {
	const rows = 4
	var out []fusedRow
	for _, size := range []int{1024, 64} {
		dst := make([]byte, size)
		src := make([][]byte, rows)
		r := rand.New(rand.NewSource(6))
		for i := range src {
			src[i] = make([]byte, size)
			r.Read(src[i])
		}
		fused := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			var d gf.Dot
			for i := 0; i < b.N; i++ {
				d.Reset(gf.F256, dst)
				for j, s := range src {
					d.Add(s, c256+uint16(j))
				}
				d.Flush()
			}
		})
		loop := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, s := range src {
					gf.F256.AddMulSlice(dst, s, c256+uint16(j))
				}
			}
		})
		row := fusedRow{Name: fmt.Sprintf("Dot(GF256,%dx%dB)", rows, size), Rows: rows, Bytes: size,
			NsPerOp: nsPerOp(fused), RowLoopNs: nsPerOp(loop), AllocsPerOp: fused.AllocsPerOp()}
		if row.NsPerOp > 0 {
			row.Speedup = row.RowLoopNs / row.NsPerOp
		}
		out = append(out, row)
	}
	return out
}

// codecRows measures the pooled emit paths at h=16, 1 KiB payloads.
func codecRows() []codecRow {
	const h, size = 16, 1024
	r := rand.New(rand.NewSource(2))
	src := make([][]byte, h)
	for i := range src {
		src[i] = make([]byte, size)
		r.Read(src[i])
	}
	enc, err := rlnc.NewEncoder(gf.F256, 0, src)
	check(err)
	rc, err := rlnc.NewRecoder(gf.F256, 0, h, size)
	check(err)
	for rc.Rank() < h {
		p := enc.Packet(r)
		_, err := rc.Add(p)
		check(err)
		p.Release()
	}
	encRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := enc.Packet(r)
			p.Release()
		}
	})
	rcRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, ok := rc.Packet(r)
			if !ok {
				b.Fatal("recoder empty")
			}
			p.Release()
		}
	})
	return []codecRow{
		{"Encoder.Packet(GF256,h=16,1KiB)", float64(encRes.NsPerOp()), encRes.AllocsPerOp()},
		{"Recoder.Packet(GF256,h=16,1KiB)", float64(rcRes.NsPerOp()), rcRes.AllocsPerOp()},
	}
}

// decodeParams is the decode-benchmark coding configuration — the
// library default of h=16 source packets of 1 KiB.
var decodeParams = rlnc.Params{Field: gf.F256, GenSize: 16, PacketSize: 1024}

// codedFeed builds seeded content of the given size plus a coded packet
// schedule with two redundant packets per generation, the same surplus a
// lossless overlay path delivers.
func codedFeed(params rlnc.Params, contentBytes int) ([]byte, []*rlnc.Packet) {
	content := make([]byte, contentBytes)
	rand.New(rand.NewSource(3)).Read(content)
	fe, err := rlnc.NewFileEncoder(params, content)
	check(err)
	r := rand.New(rand.NewSource(4))
	gens := fe.NumGenerations()
	perGen := params.GenSize + 2
	pkts := make([]*rlnc.Packet, 0, gens*perGen)
	for g := 0; g < gens; g++ {
		for i := 0; i < perGen; i++ {
			p, err := fe.Packet(g, r)
			check(err)
			pkts = append(pkts, p)
		}
	}
	return content, pkts
}

// benchSerialDecode measures the serial FileDecoder over the feed. The
// serial decoder copies packets on Add, so the feed is reused as-is.
func benchSerialDecode(params rlnc.Params, content []byte, pkts []*rlnc.Packet) float64 {
	res := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(len(content)))
		for i := 0; i < b.N; i++ {
			fd, err := rlnc.NewFileDecoder(params, len(content))
			check(err)
			for _, p := range pkts {
				if fd.Complete() {
					break
				}
				_, err := fd.Add(p)
				check(err)
			}
			if !fd.Complete() {
				panic("serial decode incomplete")
			}
		}
	})
	return mbps(res, len(content))
}

// benchParallelDecode measures the worker-pool decoder. The pool takes
// ownership of (and releases) every packet, so each iteration feeds
// pooled clones made outside the timed region — the caller of a real
// session hands over packets it already owns, so the clone cost is not
// part of the decode path.
func benchParallelDecode(params rlnc.Params, content []byte, pkts []*rlnc.Packet, workers int) float64 {
	feed := make([]*rlnc.Packet, len(pkts))
	res := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(len(content)))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j, p := range pkts {
				feed[j] = p.ClonePooled()
			}
			b.StartTimer()
			pd, err := rlnc.NewParallelFileDecoder(params, len(content), workers, nil)
			check(err)
			for _, p := range feed {
				check(pd.Add(p))
			}
			pd.Close()
			if !pd.Complete() {
				panic("parallel decode incomplete")
			}
		}
	})
	return mbps(res, len(content))
}

func decodeRow(params rlnc.Params, content []byte, pkts []*rlnc.Packet, workers int, serialMBps float64) fileDecodeRow {
	row := fileDecodeRow{
		ContentBytes: len(content),
		Generations:  (len(content) + params.GenSize*params.PacketSize - 1) / (params.GenSize * params.PacketSize),
		Workers:      workers,
		SerialMBps:   serialMBps,
		ParallelMBps: benchParallelDecode(params, content, pkts, workers),
	}
	if row.SerialMBps > 0 {
		row.Speedup = row.ParallelMBps / row.SerialMBps
	}
	return row
}

// fileDecode is the headline serial-vs-parallel row: 8 generations,
// GOMAXPROCS workers.
func fileDecode() fileDecodeRow {
	params := decodeParams
	const gens = 8
	content, pkts := codedFeed(params, gens*params.GenSize*params.PacketSize)
	defer releaseAll(pkts)
	workers := runtime.GOMAXPROCS(0)
	if workers > gens {
		workers = gens
	}
	return decodeRow(params, content, pkts, workers, benchSerialDecode(params, content, pkts))
}

// fileDecodeMatrix sweeps worker count against content size. Serial
// throughput is measured once per size and shared across that size's
// rows.
func fileDecodeMatrix() []fileDecodeRow {
	params := decodeParams
	const mib = 1 << 20
	var rows []fileDecodeRow
	for _, size := range []int{1 * mib, 4 * mib, 16 * mib, 64 * mib} {
		content, pkts := codedFeed(params, size)
		serial := benchSerialDecode(params, content, pkts)
		for _, workers := range []int{1, 2, 4, 8} {
			rows = append(rows, decodeRow(params, content, pkts, workers, serial))
		}
		releaseAll(pkts)
	}
	return rows
}

// systematicDecode measures the serial decoder on a loss-free
// all-systematic feed: every packet takes the identity fast path, so the
// decode degenerates to copying payloads into place.
func systematicDecode() sysDecodeRow {
	params := decodeParams
	const mib = 1 << 20
	contentBytes := 16 * mib
	content := make([]byte, contentBytes)
	rand.New(rand.NewSource(5)).Read(content)
	fe, err := rlnc.NewFileEncoder(params, content)
	check(err)
	gens := fe.NumGenerations()
	pkts := make([]*rlnc.Packet, 0, gens*params.GenSize)
	for g := 0; g < gens; g++ {
		for i := 0; i < params.GenSize; i++ {
			p, err := fe.Systematic(g, i)
			check(err)
			pkts = append(pkts, p)
		}
	}
	defer releaseAll(pkts)
	return sysDecodeRow{
		ContentBytes: contentBytes,
		Generations:  gens,
		MBps:         benchSerialDecode(params, content, pkts),
	}
}

func releaseAll(pkts []*rlnc.Packet) {
	for _, p := range pkts {
		p.Release()
	}
}

// fixedCostLimit bounds the cost of a 64 B AddMulSlice(GF256) call as a
// share of a 1 KiB call. A pure per-byte cost would read 1/16; a 2-CPU
// AVX2 Xeon reads ≈0.28, and ≈0.85 when an SSE/AVX transition stall sat
// in the kernel prologue. With GFNI the 1 KiB call shrinks more than the
// 64 B one, and a 2-CPU GFNI host reads 0.36–0.43. Being a ratio of two
// calls on one host, it does not depend on host speed.
const fixedCostLimit = 0.5

// runGate is the `-gate` regression check wired into `make check`: the
// emit paths and the fused rows must stay zero-alloc, and the GF(2^8)
// kernel must not grow a per-call fixed cost that dwarfs a small payload.
// Serial and parallel decode run the same eliminator, so their
// throughput is reported (-o) but not gated.
func runGate() int {
	failed := false
	for _, c := range codecRows() {
		status := "ok"
		if c.AllocsPerOp != 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("gate %-32s %3d allocs/op (want 0) %s\n", c.Name, c.AllocsPerOp, status)
	}
	for _, f := range fusedRows() {
		status := "ok"
		if f.AllocsPerOp != 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("gate %-32s %3d allocs/op (want 0) %s\n", f.Name, f.AllocsPerOp, status)
	}
	small, large := nsPerOp(benchKernel(64, addMul256)), nsPerOp(benchKernel(1024, addMul256))
	status := "ok"
	if small > fixedCostLimit*large {
		status = "FAIL"
		failed = true
	}
	fmt.Printf("gate %-32s %6.2f (64 B %.1f ns / 1 KiB %.1f ns, want <= %.2f) %s\n",
		"AddMulSlice(GF256) 64B/1KiB", small/large, small, large, fixedCostLimit, status)
	if failed {
		return 1
	}
	fmt.Println("gate ok")
	return 0
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncast-perf:", err)
		os.Exit(1)
	}
}

func main() {
	out := flag.String("o", "BENCH_rlnc.json", "output path for the JSON report")
	size := flag.Int("size", 4096, "payload bytes for the kernel benchmarks")
	gate := flag.Bool("gate", false, "run the perf regression gate instead of the full report")
	flag.Parse()

	if *gate {
		os.Exit(runGate())
	}

	rep := report{
		Accel:      gf.Accel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SliceBytes: *size,
	}
	fmt.Printf("accel=%s gomaxprocs=%d %s\n", rep.Accel, rep.GOMAXPROCS, rep.GoVersion)
	rep.Kernels = append(kernelRows(*size), kernelRows(64)...)
	for _, k := range rep.Kernels {
		fmt.Printf("%-24s %5d B %8.1f ns/op %9.0f MB/s (ref %7.0f MB/s, %5.1fx)\n",
			k.Name, k.Bytes, k.NsPerOp, k.MBps, k.RefMBps, k.Speedup)
	}
	rep.FusedRows = fusedRows()
	for _, f := range rep.FusedRows {
		fmt.Printf("%-24s %8.1f ns/op (4 single rows %7.1f ns, %4.2fx) %d allocs/op\n",
			f.Name, f.NsPerOp, f.RowLoopNs, f.Speedup, f.AllocsPerOp)
	}
	rep.Codec = codecRows()
	for _, c := range rep.Codec {
		fmt.Printf("%-32s %8.0f ns/op %3d allocs/op\n", c.Name, c.NsPerOp, c.AllocsPerOp)
	}
	rep.FileDecode = fileDecode()
	fd := rep.FileDecode
	fmt.Printf("file decode %d B / %d gens: serial %.0f MB/s, parallel(%d) %.0f MB/s (%.2fx)\n",
		fd.ContentBytes, fd.Generations, fd.SerialMBps, fd.Workers, fd.ParallelMBps, fd.Speedup)
	rep.FileDecodeMatrix = fileDecodeMatrix()
	for _, row := range rep.FileDecodeMatrix {
		fmt.Printf("file decode %4d MiB workers=%d: serial %.0f MB/s, parallel %.0f MB/s (%.2fx)\n",
			row.ContentBytes>>20, row.Workers, row.SerialMBps, row.ParallelMBps, row.Speedup)
	}
	rep.SystematicDecode = systematicDecode()
	sd := rep.SystematicDecode
	fmt.Printf("systematic decode %d MiB / %d gens: %.0f MB/s\n",
		sd.ContentBytes>>20, sd.Generations, sd.MBps)

	data, err := json.MarshalIndent(rep, "", "  ")
	check(err)
	data = append(data, '\n')
	check(os.WriteFile(*out, data, 0o644))
	fmt.Println("wrote", *out)
}
