// Package node assembles one process of the distributed system: an object
// heap, the local garbage collector, the reference-listing tables and
// acyclic DGC, the snapshot summarizer, the cycle detector, and the
// remote-invocation machinery — everything the paper's Rotor/OBIWAN
// implementations instrument, reproduced over a message transport.
//
// The package is split functional-core / imperative-shell:
//
//   - Machine is the pure protocol state machine. Every input — a mutator
//     operation, an incoming wire message, a daemon run, a clock advance —
//     mutates machine state and accumulates explicit effects (outbound
//     messages) instead of touching a transport. Machines are driven
//     single-threaded and are trivially testable without any network.
//   - Node (driver.go) is the driver: it gives one input at a time exclusive
//     ownership of the machine and puts the effects on the transport, in the
//     order the machine produced them, once the input is done. A started
//     node (NewLiveRuntime; LiveRuntime is the same type) runs its inputs on
//     a mailbox goroutine and says Tick off one wall-clock ticker, for real
//     deployments. A stepped node (New) runs them on the caller's goroutine
//     and its caller says Tick; the deterministic cluster simulator steps
//     every node in its canonical schedule, which makes a simulated run a
//     pure function of its seed.
//
// This file holds what both share with their callers: Config, Stats and the
// callback types.
package node

import (
	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/obs"
	"dgc/internal/snapshot"
	"dgc/internal/trace"
)

// Config tunes one node.
type Config struct {
	// Detector is handed to the cycle detector.
	Detector core.Config
	// CandidateMinAge is the quiescence threshold (in logical ticks) before
	// a scion becomes a cycle candidate.
	CandidateMinAge uint64
	// BatchDetection is unread: per-edge batching is the only detection
	// path.
	//
	// Deprecated: kept, with Bool, only because the frozen benchmark/
	// module sets it; both go when benchmark/ is next unfrozen.
	BatchDetection *bool
	// LGCEvery / SnapshotEvery / DetectEvery run the respective daemon
	// every N ticks, on either driver (0 disables; drive manually). Daemons
	// due on the same tick run in data-flow order: LGC, summarize, detect.
	LGCEvery      uint64
	SnapshotEvery uint64
	DetectEvery   uint64
	// CallTimeoutTicks expires pending invocations after this many ticks,
	// releasing their pinned references; 0 means never expire.
	CallTimeoutTicks uint64
	// Codec, when non-nil, serializes each snapshot before summarization
	// (the paper's disk snapshot); the bytes are counted in
	// Stats.SnapshotBytes, which no metric family mirrors. When SnapshotDir
	// is also set, the snapshot is written there.
	Codec       snapshot.Codec
	SnapshotDir string
	// DisableDGC turns off all stub/scion bookkeeping on the invocation
	// path; used by the Table 1 experiment to measure plain RMI.
	DisableDGC bool
	// Membership, when non-nil, enables the elastic cluster directory: a
	// gossip-propagated member table with failure detection, lease-guarded
	// dead-node scion reclamation and drain handoffs (see internal/membership
	// and DESIGN.md §14). Nil keeps the directory implicitly static — the
	// deterministic simulator's mode.
	Membership *membership.Config
	// Trace, when non-nil, receives structured events (collections,
	// summarizations, detections, CDM outcomes, scion lifecycle).
	Trace *trace.Log
	// Metrics, when non-nil, is the observability set this node's registry
	// is created in (labeled node="<id>"); serve it with obs.NewHTTPHandler.
	// When nil the node still instruments itself into a private registry, so
	// no code path needs a guard — the samples are simply never scraped.
	Metrics *obs.Set
}

// Bool returns a pointer to v.
//
// Deprecated: see Config.BatchDetection.
func Bool(v bool) *bool { return &v }

// Stats is a read of the node's metric registry (Machine.Stats): every
// counter but SnapshotBytes is the value of the family its comment names, so
// Stats, dgcctl status and /metrics give one answer, and a node restored
// into the same registry (a supervisor restart) continues its counts.
// Clock and ExportsPending are machine state, not counts.
type Stats struct {
	Clock          uint64
	InvokesSent    uint64 // dgc_invokes_sent_total
	InvokesHandled uint64 // dgc_invokes_handled_total
	RepliesHandled uint64 // dgc_replies_handled_total
	CallsFailed    uint64 // dgc_calls_failed_total
	ExportsPending uint64
	ScionsCreated  uint64 // dgc_scions_created_total
	ScionsDropped  uint64 // dgc_scions_dropped_total: deleted by NewSetStubs application
	LGCRuns        uint64 // dgc_lgc_runs_total
	ObjectsSwept   uint64 // dgc_lgc_objects_swept_total
	Summarizations uint64 // dgc_summarizations_total
	// SummaryCacheHits (dgc_summary_cache_hits_total) counts Summarize calls
	// satisfied by the mutation-epoch cache (heap and tables unchanged since
	// the last rebuild, so the existing summary is still exact).
	SummaryCacheHits uint64
	// SnapshotBytes counts the bytes Config.Codec encoded. It has no family
	// and restarts from zero with the machine.
	SnapshotBytes   uint64
	StubSetsSent    uint64 // dgc_stub_sets_sent_total
	StubSetsApplied uint64 // dgc_stub_sets_applied_total
	CDMsDeduped     uint64 // dgc_cdms_deduped_total: deliveries that added no new information
	CDMsRaceDropped uint64 // dgc_cdms_race_dropped_total: deliveries conflicting with the merged view
	// BatchCDMsSent (dgc_batch_cdms_sent_total) and BatchSectionsSent (the
	// sum of dgc_batch_cdm_sections) count multi-section messages and the
	// sections they carried (forward direction only, returns excluded).
	BatchCDMsSent     uint64
	BatchSectionsSent uint64
	// PartialReturns (dgc_partial_returns_total) counts partial returns (a
	// cut branch's accumulated view) merged at this node as the detection
	// origin; DetectionRelaunches (dgc_detection_relaunches_total) counts the
	// residue re-expansions those merges triggered.
	PartialReturns      uint64
	DetectionRelaunches uint64
	Detector            DetectorStats
}

// DetectorStats counts the outcomes the node's cycle detector returned.
type DetectorStats struct {
	// Started counts detections launched here that made a first hop.
	Started     uint64 // dgc_detections_started_total
	CDMsSent    uint64 // dgc_cdms_sent_total: one per detection per edge
	CDMsHandled uint64 // dgc_cdms_handled_total: one per delivered CDM or section
	Dropped     uint64 // dgc_cdms_dropped_total
	Aborted     uint64 // dgc_detections_aborted_total
	CyclesFound uint64 // dgc_cycles_found_total
	ScionsFreed uint64 // dgc_scions_freed_total
}

// Reply is the caller-side result of a remote invocation.
type Reply struct {
	OK      bool
	Err     string
	Returns []ids.GlobalRef
}

// ReplyFunc consumes an invocation result. It is called inside the machine;
// implementations may use the Mutator passed alongside but must not call
// public Node methods — the re-entrancy guard panics on violations, which
// would otherwise deadlock.
type ReplyFunc func(m Mutator, r Reply)

// Method implements a remotely invocable method. It runs inside the machine
// and receives a Mutator for heap access, the invoked object and the
// imported argument references. Returned references are exported back to
// the caller. Like ReplyFunc, it must not re-enter public Node methods.
type Method func(m Mutator, self ids.ObjID, args []ids.GlobalRef) []ids.GlobalRef
