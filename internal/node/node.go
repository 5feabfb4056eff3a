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
//     order the machine produced them. A started node (NewLiveRuntime;
//     LiveRuntime is the same type) runs its inputs on a mailbox goroutine,
//     sends once per drained window of them and says Tick off one wall-clock
//     ticker, for real deployments. A stepped node (New) runs them on the
//     caller's goroutine and sends after each, and its caller says Tick; the
//     deterministic cluster simulator steps every node in its canonical
//     schedule, which makes a simulated run a pure function of its seed.
//
// This file holds what both share with their callers: Config and the
// callback types. What a node did is counted in its metric registry
// (Node.Metrics, Machine.Metrics), the families /metrics serves.
package node

import (
	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/obs"
	"dgc/internal/snapshot"
	"dgc/internal/trace"
)

// Config tunes one node.
type Config struct {
	// CandidateMinAge is the quiescence threshold (in logical ticks) before
	// a scion becomes a cycle candidate.
	CandidateMinAge uint64
	// BatchDetection is unread: per-peer batching is the only detection
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
	// (the paper's disk snapshot). When SnapshotDir is also set, the
	// snapshot is written there.
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
	// is created in (labeled node="<id>"); the admin server's /metrics
	// serves it.
	// When nil the node still instruments itself into a private registry, so
	// no code path needs a guard — the samples are simply never scraped.
	Metrics *obs.Set
}

// Bool returns a pointer to v.
//
// Deprecated: see Config.BatchDetection.
func Bool(v bool) *bool { return &v }

// Reply is the caller-side result of a remote invocation.
type Reply struct {
	OK      bool
	Err     string
	Returns []ids.GlobalRef
}

// ReplyFunc consumes an invocation result. It is called inside the machine;
// implementations use the Mutator passed alongside and never call public
// Node methods, which would deadlock (see Mutator).
type ReplyFunc func(m Mutator, r Reply)

// Method implements a remotely invocable method. It runs inside the machine
// and receives a Mutator for heap access, the invoked object and the
// imported argument references. Returned references are exported back to
// the caller. Like ReplyFunc, it uses its Mutator and never calls public
// Node methods, which would deadlock (see Mutator).
type Method func(m Mutator, self ids.ObjID, args []ids.GlobalRef) []ids.GlobalRef
