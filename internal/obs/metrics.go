package obs

// The shared metric vocabulary. Every series a node or transport reports is
// declared here, in one place, so simulations, live daemons and dashboards
// agree on names (documented in DESIGN.md §9). Constructors are idempotent
// per registry: restoring a machine into an existing registry rebinds to the
// same instruments.

// DetectionLatencyBuckets bounds the per-detection latency histogram: from
// sub-millisecond (in-process simulation) to tens of seconds (wide-area
// detections spanning many summarization rounds).
var DetectionLatencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// DurationBuckets bounds the daemon-duration histograms (LGC, summarize):
// microseconds for small heaps up to seconds for pathological ones.
var DurationBuckets = []float64{
	1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1,
}

// HopBuckets bounds the CDM forwarding-depth histogram (the detector's hop
// budget defaults to 256).
var HopBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// BatchSectionBuckets bounds the sections-per-BatchCDM histogram: one
// section per (detection, edge) bound for one peer, up to the detection
// round's candidate budget.
var BatchSectionBuckets = []float64{2, 4, 8, 16, 32, 64, 128, 256, 512}

// NodeMetrics is one node's instrument block, covering detection, the local
// and acyclic collectors, RPC and the runtime mailbox.
type NodeMetrics struct {
	// Cycle detection.
	DetectionsStarted *Counter
	DetectionsAborted *Counter
	CyclesFound       *Counter
	CDMsSent          *Counter
	CDMsHandled       *Counter
	CDMsDropped       *Counter
	CDMsDeduped       *Counter
	CDMsRaceDropped   *Counter
	ScionsFreed       *Counter
	DetectionLatency  *Histogram
	CDMHops           *Histogram

	// Multi-section detection messages, and the partial returns a cut branch
	// sends its detection's origin with the relaunches they trigger there.
	BatchCDMsSent       *Counter
	BatchSections       *Histogram
	PartialReturns      *Counter
	DetectionRelaunches *Counter

	// Reference listing and local GC.
	ScionsCreated     *Counter
	ScionsDropped     *Counter
	LGCRuns           *Counter
	ObjectsSwept      *Counter
	StubSetsSent      *Counter
	StubSetsApplied   *Counter
	Summarizations    *Counter
	LGCDuration       *Histogram
	SummarizeDuration *Histogram

	// Remote invocation.
	InvokesSent    *Counter
	InvokesHandled *Counter
	RepliesHandled *Counter
	CallsFailed    *Counter

	// Instantaneous state.
	HeapObjects  *Gauge
	Scions       *Gauge
	Stubs        *Gauge
	PendingCalls *Gauge

	// LiveRuntime mailbox (static zero under the simulator's Node driver).
	MailboxDepth    *Gauge
	MailboxCapacity *Gauge
	MailboxDropped  *Counter
}

// NewNodeMetrics registers (or rebinds) the node instrument block on reg.
func NewNodeMetrics(reg *Registry) *NodeMetrics {
	return &NodeMetrics{
		DetectionsStarted: reg.Counter("dgc_detections_started_total", "Cycle detections initiated at this node that made a first hop."),
		DetectionsAborted: reg.Counter("dgc_detections_aborted_total", "CDM deliveries terminated by an invocation-counter mismatch (mutator race)."),
		CyclesFound:       reg.Counter("dgc_cycles_found_total", "CDM deliveries that proved a distributed garbage cycle."),
		CDMsSent:          reg.Counter("dgc_cdms_sent_total", "Cycle detection messages forwarded to peers."),
		CDMsHandled:       reg.Counter("dgc_cdms_handled_total", "Cycle detection messages delivered to this node."),
		CDMsDropped:       reg.Counter("dgc_cdms_dropped_total", "CDM deliveries discarded for referencing a scion absent from the summary."),
		CDMsDeduped:       reg.Counter("dgc_cdms_deduped_total", "CDM deliveries that added no new information to the accumulated view."),
		CDMsRaceDropped:   reg.Counter("dgc_cdms_race_dropped_total", "CDM deliveries conflicting with the accumulated per-detection view."),
		ScionsFreed:       reg.Counter("dgc_scions_freed_total", "Scions deleted because a detection proved them part of a garbage cycle."),
		DetectionLatency:  reg.Histogram("dgc_detection_latency_seconds", "Seconds from a detection's arrival at this node to its terminal outcome here (cycle found or abort), within the one input that handles it.", DetectionLatencyBuckets),
		CDMHops:           reg.Histogram("dgc_cdm_hops", "Forwarding depth carried by delivered CDMs.", HopBuckets),

		BatchCDMsSent:       reg.Counter("dgc_batch_cdms_sent_total", "Forward BatchCDM messages sent: one per flush per peer that gets two or more detection sections (partial returns not counted)."),
		BatchSections:       reg.Histogram("dgc_batch_cdm_sections", "Detection sections per forward BatchCDM sent, one per (detection, outgoing reference) bound for the peer.", BatchSectionBuckets),
		PartialReturns:      reg.Counter("dgc_partial_returns_total", "Partial returns received at this node as a detection's origin: the accumulated view of a branch cut without a verdict."),
		DetectionRelaunches: reg.Counter("dgc_detection_relaunches_total", "Unresolved residues this node re-launched as a detection's origin after merging a partial return."),

		ScionsCreated:     reg.Counter("dgc_scions_created_total", "Incoming-reference scions created."),
		ScionsDropped:     reg.Counter("dgc_scions_dropped_total", "Scions deleted by reference-listing stub-set application."),
		LGCRuns:           reg.Counter("dgc_lgc_runs_total", "Local garbage collections run: scheduled, explicit and the ones a scion-deleting stub set causes."),
		ObjectsSwept:      reg.Counter("dgc_lgc_objects_swept_total", "Objects reclaimed by local collections."),
		StubSetsSent:      reg.Counter("dgc_stub_sets_sent_total", "NewSetStubs messages sent after local collections."),
		StubSetsApplied:   reg.Counter("dgc_stub_sets_applied_total", "NewSetStubs messages applied from peers."),
		Summarizations:    reg.Counter("dgc_summarizations_total", "Graph summarization runs."),
		LGCDuration:       reg.Histogram("dgc_lgc_duration_seconds", "Wall-clock duration of local collections.", DurationBuckets),
		SummarizeDuration: reg.Histogram("dgc_summarize_duration_seconds", "Wall-clock duration of Summarize calls, snapshot encode included.", DurationBuckets),

		InvokesSent:    reg.Counter("dgc_invokes_sent_total", "Remote invocations sent."),
		InvokesHandled: reg.Counter("dgc_invokes_handled_total", "Remote invocations served."),
		RepliesHandled: reg.Counter("dgc_replies_handled_total", "Invocation replies received."),
		CallsFailed:    reg.Counter("dgc_calls_failed_total", "Invocations that failed or expired."),

		HeapObjects:  reg.Gauge("dgc_heap_objects", "Objects currently on the heap."),
		Scions:       reg.Gauge("dgc_scions", "Incoming-reference scions currently recorded."),
		Stubs:        reg.Gauge("dgc_stubs", "Outgoing-reference stubs currently recorded."),
		PendingCalls: reg.Gauge("dgc_pending_calls", "Remote invocations awaiting replies."),

		MailboxDepth:    reg.Gauge("dgc_mailbox_depth", "Runtime mailbox occupancy at last consume."),
		MailboxCapacity: reg.Gauge("dgc_mailbox_capacity", "Runtime mailbox capacity."),
		MailboxDropped:  reg.Counter("dgc_mailbox_dropped_total", "Inbound transport deliveries dropped on mailbox overflow."),
	}
}

// TransportMetrics is one endpoint's instrument block, shared by the TCP
// endpoint and the in-process fabric.
type TransportMetrics struct {
	MsgsSent       *Counter
	BytesSent      *Counter
	SendErrors     *Counter
	MsgsReceived   *Counter
	BytesReceived  *Counter
	FramesReceived *Counter
	DecodeErrors   *Counter
	Dials          *Counter
	DialFailures   *Counter
	ConnsDropped   *Counter
	MsgsDropped    *Counter
}

// NewTransportMetrics registers (or rebinds) the transport instrument block
// on reg.
func NewTransportMetrics(reg *Registry) *TransportMetrics {
	return &TransportMetrics{
		MsgsSent:       reg.Counter("dgc_transport_msgs_sent_total", "Protocol messages sent."),
		BytesSent:      reg.Counter("dgc_transport_bytes_sent_total", "Encoded bytes sent, including framing and each connection's sender name."),
		SendErrors:     reg.Counter("dgc_transport_send_errors_total", "Sends that failed after the reconnect retry."),
		MsgsReceived:   reg.Counter("dgc_transport_msgs_received_total", "Protocol messages delivered to the handler."),
		BytesReceived:  reg.Counter("dgc_transport_bytes_received_total", "Frame bytes received, including framing."),
		FramesReceived: reg.Counter("dgc_transport_frames_received_total", "Frames read off inbound connections, one per message sent."),
		DecodeErrors:   reg.Counter("dgc_transport_decode_errors_total", "Inbound frames whose payload failed to decode."),
		Dials:          reg.Counter("dgc_transport_dials_total", "Outbound connection attempts."),
		DialFailures:   reg.Counter("dgc_transport_dial_failures_total", "Outbound connection attempts that failed."),
		ConnsDropped:   reg.Counter("dgc_transport_conns_dropped_total", "Cached outbound connections torn down after a write failure."),
		MsgsDropped:    reg.Counter("dgc_transport_msgs_dropped_total", "Messages dropped in transit (fault injection or dead destination)."),
	}
}
