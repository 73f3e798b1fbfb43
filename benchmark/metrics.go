package main

// metricDef declares one metric of the benchmark. BENCHMARK.json at the
// repository root carries the same table for the acceptance driver; a
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a viewer or an operator feels. Every workload reports
// every one of them; what "operation" means on each workload is fixed in
// README.md (a generation delivered to a receiver on the data workloads,
// a join or a leave on join-churn). A bound is the share of the parent
// commit's median by which a metric may get worse before a change counts
// as a regression.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "op_delay_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "op_delay_p90_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is measured by the traced run, module by module. These have
// no bound: they explain a move in an end-to-end metric, they do not
// gate anything. A metric that does not exist on a workload (the
// generator lateness of a workload with no generator) reads 0 there.
var perLayer = []metricDef{
	{Name: "gf.addmul256_1k_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "gf.addmul256_64b_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.recode_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.absorb_coded_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.absorb_sys_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.absorb_redundant_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.file_decode_coded_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "rlnc.file_decode_par_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "protocol.frame_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.frame_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.frame_allocs", Unit: "count", Better: "lower"},
	{Name: "protocol.control_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.innovation_ratio", Unit: "ratio", Better: "higher"},
	{Name: "protocol.source_rounds", Unit: "count", Better: "lower"},
	{Name: "protocol.admit_batch_mean", Unit: "count", Better: "higher"},
	{Name: "protocol.joins_per_s", Unit: "1/s", Better: "higher"},
	{Name: "protocol.leaves_per_s", Unit: "1/s", Better: "higher"},
	{Name: "protocol.repair_s", Unit: "s", Better: "lower"},
	{Name: "transport.mem_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.udp_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.udp_batch_mean", Unit: "count", Better: "higher"},
	{Name: "transport.udp_drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.join_ns", Unit: "ns", Better: "lower"},
	{Name: "core.leave_ns", Unit: "ns", Better: "lower"},
	{Name: "core.repair_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "swarm.open_join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "swarm.open_join_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "swarm.gen_lateness_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_pause_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "trace.rlnc_self_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.protocol_self_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.transport_self_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.core_self_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
