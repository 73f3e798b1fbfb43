package obs

// This file defines the per-layer metric bundles the stack is
// instrumented with. A nil registry yields nil series, and every series
// method is a no-op on nil, so the protocol bundles (tracker, node,
// source, codec) built from a nil registry are usable bundles of nil
// series: their holders call them unguarded and an uninstrumented
// component pays one nil check per series call. The transport bundle is
// nil for a nil registry instead; its helper methods are nil-safe.

// TransportMetrics instruments one endpoint's frame traffic.
type TransportMetrics struct {
	FramesSent *Counter
	FramesRecv *Counter
	BytesSent  *Counter
	BytesRecv  *Counter
	Drops      *Counter
	// SendBatch records datagrams coalesced per vectorized send (UDP).
	// RecvBatch records frames handed over per batched receive: a
	// recvmmsg call on UDP, a RecvBatch call on the in-memory fabric.
	SendBatch *Histogram
	RecvBatch *Histogram
}

// NewTransportMetrics registers the transport family labeled with the
// endpoint's address.
func NewTransportMetrics(r *Registry, endpoint string) *TransportMetrics {
	return NewTransportMetricsKind(r, endpoint, "")
}

// NewTransportMetricsKind registers the transport family labeled with the
// endpoint's address and its transport kind ("tcp", "udp", "mem"), so a
// dual-plane session can tell control traffic from data traffic in the
// same scrape. An empty kind omits the label.
func NewTransportMetricsKind(r *Registry, endpoint, kind string) *TransportMetrics {
	if r == nil {
		return nil
	}
	labels := []Label{{Key: "endpoint", Value: endpoint}}
	if kind != "" {
		labels = append(labels, Label{Key: "transport", Value: kind})
	}
	return &TransportMetrics{
		FramesSent: r.Counter("ncast_transport_frames_sent_total", "Frames sent by the endpoint.", labels...),
		FramesRecv: r.Counter("ncast_transport_frames_recv_total", "Frames delivered to the endpoint.", labels...),
		BytesSent:  r.Counter("ncast_transport_bytes_sent_total", "Payload bytes sent by the endpoint.", labels...),
		BytesRecv:  r.Counter("ncast_transport_bytes_recv_total", "Payload bytes delivered to the endpoint.", labels...),
		Drops:      r.Counter("ncast_transport_frames_dropped_total", "Frames dropped (loss, dead peer, clogged queue, send error).", labels...),
		SendBatch:  r.Histogram("ncast_transport_send_batch_size", "Datagrams coalesced per vectorized send.", BatchBuckets(), labels...),
		RecvBatch:  r.Histogram("ncast_transport_recv_batch_size", "Frames handed over per batched receive.", BatchBuckets(), labels...),
	}
}

// Sent records one delivered outbound frame of the given size.
func (m *TransportMetrics) Sent(bytes int) {
	if m == nil {
		return
	}
	m.FramesSent.Inc()
	m.BytesSent.Add(uint64(bytes))
}

// Received records one inbound frame of the given size.
func (m *TransportMetrics) Received(bytes int) {
	if m == nil {
		return
	}
	m.FramesRecv.Inc()
	m.BytesRecv.Add(uint64(bytes))
}

// ReceivedBatch records a batch of inbound frames carrying the given
// payload bytes in all.
func (m *TransportMetrics) ReceivedBatch(frames, bytes int) {
	if m == nil {
		return
	}
	m.FramesRecv.Add(uint64(frames))
	m.BytesRecv.Add(uint64(bytes))
}

// Dropped records one lost frame.
func (m *TransportMetrics) Dropped() {
	if m == nil {
		return
	}
	m.Drops.Inc()
}

// ObserveSendBatch records the size of one vectorized send.
func (m *TransportMetrics) ObserveSendBatch(n int) {
	if m == nil {
		return
	}
	m.SendBatch.Observe(float64(n))
}

// ObserveRecvBatch records the size of one vectorized receive.
func (m *TransportMetrics) ObserveRecvBatch(n int) {
	if m == nil {
		return
	}
	m.RecvBatch.Observe(float64(n))
}

// TrackerMetrics instruments the curtain authority: §3 hello/good-bye/
// repair traffic, §5 congestion transitions, the overlay gauges, and the
// families fed by what nodes report: dissemination traces and links.
type TrackerMetrics struct {
	Hellos        *Counter
	Goodbyes      *Counter
	Complaints    *Counter
	Repairs       *Counter
	Redirects     *Counter
	Completions   *Counter
	Congestions   *Counter
	Uncongestions *Counter
	Leases        *Counter
	LeaseExpiries *Counter
	OutboxRetries *Counter
	OutboxDrops   *Counter
	StatsReports  *Counter
	Nodes         *Gauge // rows of M
	EmptyThreads  *Gauge // threads with no clips (served directly by the rod)
	Completed     *Gauge
	Events        *Ring
	// Control-plane op latencies: time spent inside the matrix transaction
	// per hello admission, good-bye splice-out, and repair splice-out —
	// the §3 per-op costs the indexed curtain keeps flat as M grows.
	HelloNanos   *Histogram
	GoodbyeNanos *Histogram
	RepairNanos  *Histogram
	// AdmitBatch is the number of hellos coalesced per matrix transaction
	// by batched admission.
	AdmitBatch *Histogram
	Trace      *TraceMetrics
	Link       *LinkMetrics
	// reg is the registry the bundle was built from; OnCollect hooks
	// into it.
	reg *Registry
}

// NewTrackerMetrics registers the tracker family on r, sharing r's trace
// ring.
func NewTrackerMetrics(r *Registry) *TrackerMetrics {
	return &TrackerMetrics{
		Hellos:        r.Counter("ncast_tracker_hellos_total", "Hello requests processed (joins and welcome retries)."),
		Goodbyes:      r.Counter("ncast_tracker_goodbyes_total", "Good-bye requests processed."),
		Complaints:    r.Counter("ncast_tracker_complaints_total", "Complaints received."),
		Repairs:       r.Counter("ncast_tracker_repairs_total", "Repair splice-outs performed on accused nodes."),
		Redirects:     r.Counter("ncast_tracker_redirects_total", "Stream redirections issued to parents and the source."),
		Completions:   r.Counter("ncast_tracker_completions_total", "First-time full-decode reports."),
		Congestions:   r.Counter("ncast_tracker_congestions_total", "Degree reductions granted (§5 congestion relief)."),
		Uncongestions: r.Counter("ncast_tracker_uncongestions_total", "Degree regrowths granted (§5 recovery)."),
		Leases:        r.Counter("ncast_tracker_leases_total", "Liveness lease renewals processed."),
		LeaseExpiries: r.Counter("ncast_tracker_lease_expiries_total", "Rows expired by the lease sweep (crash without good-bye)."),
		OutboxRetries: r.Counter("ncast_tracker_outbox_retries_total", "Control sends retried after a deadline or transport error."),
		OutboxDrops:   r.Counter("ncast_tracker_outbox_dropped_total", "Control messages dropped (outbox full or retries exhausted)."),
		StatsReports:  r.Counter("ncast_tracker_stats_reports_total", "Node telemetry reports aggregated into the cluster view."),
		Nodes:         r.Gauge("ncast_overlay_nodes", "Current overlay population (rows of M)."),
		EmptyThreads:  r.Gauge("ncast_overlay_empty_threads", "Threads with no clipped rows."),
		Completed:     r.Gauge("ncast_overlay_completed", "Nodes that reported a full decode."),
		Events:        r.Trace(),
		HelloNanos:    r.Histogram("ncast_tracker_hello_nanos", "Matrix-transaction time per hello admission, nanoseconds.", LatencyBuckets()),
		GoodbyeNanos:  r.Histogram("ncast_tracker_goodbye_nanos", "Matrix-transaction time per good-bye splice-out, nanoseconds.", LatencyBuckets()),
		RepairNanos:   r.Histogram("ncast_tracker_repair_nanos", "Matrix-transaction time per repair splice-out, nanoseconds.", LatencyBuckets()),
		AdmitBatch:    r.Histogram("ncast_tracker_admit_batch_size", "Hellos coalesced per batched-admission matrix transaction.", BatchBuckets()),
		Trace:         NewTraceMetrics(r),
		Link:          NewLinkMetrics(r),
		reg:           r,
	}
}

// OnCollect registers fn to run before each snapshot or scrape of the
// registry the bundle was built from: the tracker computes its overlay
// gauges there, when they are read. No-op for a nil registry.
func (m *TrackerMetrics) OnCollect(fn func()) { m.reg.OnCollect(fn) }

// BatchBuckets returns the bounds for the admission batch-size histogram:
// 1 (no coalescing) up to the batch cap.
func BatchBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// NodeMetrics instruments one overlay client: packet flow, rank progress,
// generation-lifecycle outcomes, and the codec underneath it.
type NodeMetrics struct {
	Received   *Counter
	Innovative *Counter
	Redundant  *Counter
	Emitted    *Counter // re-coded data frames forwarded downstream
	Complaints *Counter
	Rank       *Gauge
	GensDone   *Gauge
	// DecodeDelay is the true end-to-end latency per generation: source
	// emission stamp to full rank at this node, in nanoseconds. Overhead
	// is packets-received / packets-needed per decoded generation (1.0 is
	// the information-theoretic floor).
	DecodeDelay *Histogram
	Overhead    *Histogram
	Codec       *CodecMetrics
}

// NewNodeMetrics registers the node family labeled with the node's
// transport address.
func NewNodeMetrics(r *Registry, node string) *NodeMetrics {
	l := Label{Key: "node", Value: node}
	return &NodeMetrics{
		Received:    r.Counter("ncast_node_received_total", "Data packets received.", l),
		Innovative:  r.Counter("ncast_node_innovative_total", "Received packets that increased rank.", l),
		Redundant:   r.Counter("ncast_node_redundant_total", "Received packets that did not increase rank.", l),
		Emitted:     r.Counter("ncast_node_emitted_total", "Re-coded data frames forwarded downstream.", l),
		Complaints:  r.Counter("ncast_node_complaints_total", "Complaints sent about silent parents.", l),
		Rank:        r.Gauge("ncast_node_rank", "Total decoded rank across generations.", l),
		GensDone:    r.Gauge("ncast_node_generations_done", "Fully decoded generations.", l),
		DecodeDelay: r.Histogram("ncast_node_decode_delay_nanos", "End-to-end decode delay per generation: source emission to full rank, nanoseconds.", LatencyBuckets(), l),
		Overhead:    r.Histogram("ncast_node_coding_overhead_ratio", "Packets received over packets needed per decoded generation.", OverheadBuckets(), l),
		Codec:       NewCodecMetrics(r, l),
	}
}

// OverheadBuckets returns the bounds used by the coding-overhead
// histogram: 1.0 (no waste) up to 4x.
func OverheadBuckets() []float64 {
	return []float64{1.0, 1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2, 2.5, 3, 4}
}

// CodecMetrics instruments the RLNC layer: generations closed. The codec
// reads no clock; a generation's timing is the lifecycle tracker's (its
// first_packet and decoded events, ncast_node_decode_delay_nanos).
type CodecMetrics struct {
	GensComplete *Counter
}

// NewCodecMetrics registers the rlnc family with the given labels.
func NewCodecMetrics(r *Registry, labels ...Label) *CodecMetrics {
	return &CodecMetrics{
		GensComplete: r.Counter("ncast_rlnc_generations_completed_total", "Generations decoded to full rank.", labels...),
	}
}

// Closed records one generation decoded to full rank. No-op on a nil
// bundle: a codec built without instrumentation holds none.
func (m *CodecMetrics) Closed() {
	if m != nil {
		m.GensComplete.Inc()
	}
}

// SourceMetrics instruments the server's data pump.
type SourceMetrics struct {
	Rounds  *Counter
	Packets *Counter
}

// NewSourceMetrics registers the source family on r.
func NewSourceMetrics(r *Registry) *SourceMetrics {
	return &SourceMetrics{
		Rounds:  r.Counter("ncast_source_rounds_total", "Pump rounds in which a thread had a child and a generation its subtree still needs."),
		Packets: r.Counter("ncast_source_packets_total", "Coded packets emitted by the source."),
	}
}
