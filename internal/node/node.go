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
	// AggregateDetection enables hierarchical match aggregation: a node
	// whose processing of a detection ends without forwarding returns its
	// accumulated partial match to the detection's origin, which merges
	// the fragments and re-launches only the unresolved residue (read in
	// Machine.processCDMSection). Off by default because the live
	// benchmark prices it at +16-27% detection traffic for no latency gain
	// (EXPERIMENTS.md "Aggregation on the live cluster"); it stays because
	// it is the only mode that collects the dense webgraph-64 workload.
	AggregateDetection bool
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
	// EmptySetRepeats bounds consecutive empty NewSetStubs messages to a
	// former peer; 0 (default) repeats forever, which is what makes scion
	// reclamation tolerate message loss. See refs.AcyclicDGC.
	EmptySetRepeats int
	// Codec, when non-nil, serializes each snapshot before summarization
	// (the paper's disk snapshot); bytes are accounted in Stats. When
	// SnapshotDir is also set, the snapshot is written there.
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

// Stats counts node activity.
type Stats struct {
	Clock          uint64
	InvokesSent    uint64
	InvokesHandled uint64
	RepliesHandled uint64
	CallsFailed    uint64
	ExportsPending uint64
	ScionsCreated  uint64
	ScionsDropped  uint64 // deleted by NewSetStubs application
	LGCRuns        uint64
	ObjectsSwept   uint64
	Summarizations uint64
	// SummaryCacheHits counts Summarize calls satisfied by the
	// mutation-epoch cache (heap and tables unchanged since the last
	// rebuild, so the existing summary is still exact).
	SummaryCacheHits uint64
	SnapshotBytes    uint64
	StubSetsSent     uint64
	StubSetsApplied  uint64
	CDMsDeduped      uint64 // CDM deliveries that added no new information
	CDMsRaceDropped  uint64 // CDM deliveries conflicting with the merged view
	// CDMMsgsSent counts actual detection-traffic messages handed to the
	// transport: each CDM is one, each BatchCDM is one regardless of its
	// section count, so it is at most Detector.CDMsSent (one per detection
	// per edge, what per-detection framing would send). The candidate sweep
	// (dgc-bench -exp batch) reads both.
	CDMMsgsSent uint64
	// BatchCDMsSent / BatchSectionsSent count multi-section messages and
	// the sections they carried (forward direction only, returns excluded).
	BatchCDMsSent     uint64
	BatchSectionsSent uint64
	// PartialReturns counts aggregation-mode partial results merged at this
	// node as the detection origin; DetectionRelaunches counts the residue
	// re-expansions those merges triggered.
	PartialReturns      uint64
	DetectionRelaunches uint64
	Detector            core.Stats
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
