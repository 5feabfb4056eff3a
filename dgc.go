// Package dgc is an asynchronous, complete distributed garbage collector:
// a Go reproduction of Veiga & Ferreira, "Asynchronous Complete Distributed
// Garbage Collection" (IPPS 2005).
//
// The library provides, per process ("node"):
//
//   - an object heap with local roots and a tracing local collector;
//   - a reference-listing acyclic distributed collector (stubs, scions and
//     NewSetStubs messages), tolerant to message loss, duplication and
//     reordering;
//   - graph snapshots (with pluggable serialization codecs) summarized into
//     the per-scion/per-stub reachability relations the detector needs;
//   - the paper's contribution: a distributed cycle detector (DCDA) that
//     finds and reclaims distributed cycles of garbage using an algebraic
//     cycle-detection message (CDM), with no global synchronization, no
//     per-detection state at intermediate processes, and invocation
//     counters that abort detections raced by the mutator;
//   - a remote invocation layer that instruments reference export/import
//     exactly as the paper's Remoting instrumentation does.
//
// Nodes communicate over a pluggable transport: a deterministic in-process
// fabric with fault injection (NewCluster) for simulation and testing, or
// real TCP sockets (ListenTCP + NewNode) for distributed deployment.
//
// What a node did (objects swept, scions created, CDMs sent, cycles found)
// is counted once, in its NodeMetrics block: Node.Metrics returns it, and
// the node's metric registry serves the same counters at /metrics.
//
// # Quick start
//
//	c := dgc.NewCluster(1, dgc.Config{})
//	refs, _ := c.Materialize(dgc.Figure3(), dgc.Config{})
//	c.CollectFully(12) // cycle detected and reclaimed
//
// ExampleNewCluster runs this as a test (go test -run ExampleNewCluster -v);
// DESIGN.md describes the architecture.
package dgc

import (
	"dgc/internal/cluster"
	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/node"
	"dgc/internal/obs"
	"dgc/internal/snapshot"
	"dgc/internal/trace"
	"dgc/internal/transport"
	"dgc/internal/wire"
	"dgc/internal/workload"
)

// Identifier types.
type (
	// NodeID names a process.
	NodeID = ids.NodeID
	// ObjID identifies an object within one process.
	ObjID = ids.ObjID
	// GlobalRef names an object anywhere: owner node plus object id.
	GlobalRef = ids.GlobalRef
	// RefID identifies one inter-process reference (stub/scion pair).
	RefID = ids.RefID
)

// Node-level types.
type (
	// Config tunes one node; the zero value is a sensible default
	// (manual GC driving, unlimited detections, no snapshot codec).
	Config = node.Config
	// Node is one process: heap, collectors, detector and RPC. Built with
	// NewNode it is stepped — inputs run on the caller's goroutine and the
	// clock advances on Tick; built with NewLiveRuntime it is started.
	Node = node.Node
	// Mutator is the application's heap view inside With/method/reply
	// callbacks.
	Mutator = node.Mutator
	// Reply is a remote invocation result.
	Reply = node.Reply
	// ReplyFunc consumes a Reply.
	ReplyFunc = node.ReplyFunc
	// Method implements a remotely invocable method.
	Method = node.Method
	// Machine is the pure protocol core a Node drives (see DESIGN.md §8).
	Machine = node.Machine
	// LiveRuntime is a started Node (the same type): a mailbox goroutine
	// that says Tick off one wall-clock ticker, for real deployments.
	LiveRuntime = node.LiveRuntime
	// RuntimeConfig tunes a LiveRuntime's tick period and mailbox.
	RuntimeConfig = node.RuntimeConfig
)

// ErrRuntimeClosed is returned by a LiveRuntime's entry points after Close.
var ErrRuntimeClosed = node.ErrRuntimeClosed

// Cluster membership types: configure Config.Membership to enable the
// elastic gossip directory with lease-guarded dead-node reclamation
// (see internal/membership and DESIGN.md §14).
type (
	// MembershipConfig tunes the gossip directory and failure detector.
	MembershipConfig = membership.Config
	// Member is one membership directory record.
	Member = membership.Member
	// MemberState is a member's lifecycle position.
	MemberState = membership.State
)

// Membership lifecycle states.
const (
	MemberJoining  = membership.Joining
	MemberAlive    = membership.Alive
	MemberSuspect  = membership.Suspect
	MemberDraining = membership.Draining
	MemberDead     = membership.Dead
)

// Cluster-level types.
type (
	// Cluster is a simulated set of nodes over the deterministic
	// in-process transport.
	Cluster = cluster.Cluster
	// Faults configures the in-process transport's fault injection.
	Faults = transport.Faults
	// Topology is an abstract distributed object graph (see the workload
	// constructors below).
	Topology = workload.Topology
	// RandomConfig parameterizes RandomGraph.
	RandomConfig = workload.RandomConfig
)

// Snapshot codecs (the serialization experiment of §4).
type (
	// Codec serializes process snapshots.
	Codec = snapshot.Codec
	// BinaryCodec is the fast, compact snapshot serializer.
	BinaryCodec = snapshot.BinaryCodec
	// ReflectCodec is the deliberately naive reflective serializer
	// standing in for Rotor's.
	ReflectCodec = snapshot.ReflectCodec
)

// NewCluster creates a simulation cluster of nodes named names, all with
// configuration cfg, over a deterministic in-process network seeded with
// seed (the seed only drives fault injection).
func NewCluster(seed int64, cfg Config, names ...NodeID) *Cluster {
	return cluster.New(seed, cfg, names...)
}

// NewNode assembles a standalone stepped node over any transport endpoint —
// use ListenTCP for a real-socket deployment. The node installs itself as
// the endpoint's handler.
func NewNode(id NodeID, ep transport.Endpoint, cfg Config) *Node {
	return node.New(id, ep, cfg)
}

// RestoreNode reconstructs a node from state produced by (*Node).Save,
// attaching it to the endpoint: the persistent-store restart path. Heap,
// stub/scion tables (with invocation counters) and reference-listing
// sequence numbers survive; in-flight calls and detection caches do not
// (they are volatile by design).
func RestoreNode(ep transport.Endpoint, cfg Config, state []byte) (*Node, error) {
	return node.Restore(ep, cfg, state)
}

// NewLiveRuntime assembles a wall-clock node over the endpoint and starts
// its event loop and clock: the engine of a real deployment
// (cmd/dgc-node, dgcctl up). Close stops it; the caller closes the endpoint
// separately.
func NewLiveRuntime(id NodeID, ep transport.Endpoint, cfg Config, rcfg RuntimeConfig) *LiveRuntime {
	return node.NewLiveRuntime(id, ep, cfg, rcfg)
}

// RestoreLiveRuntime reconstructs a live node from state produced by Save
// and starts it: the persistent-store restart path for real deployments.
func RestoreLiveRuntime(ep transport.Endpoint, cfg Config, rcfg RuntimeConfig, state []byte) (*LiveRuntime, error) {
	return node.RestoreLiveRuntime(ep, cfg, rcfg, state)
}

// ListenTCP opens a TCP endpoint for node id at addr ("host:port"; port 0
// picks an ephemeral port, see (*TCPEndpoint).Addr). peers maps other node
// names to their dial addresses and may be extended later with AddPeer.
func ListenTCP(id NodeID, addr string, peers map[NodeID]string) (*transport.TCPEndpoint, error) {
	return transport.ListenTCP(id, addr, peers)
}

// TCPEndpoint re-exports the TCP transport endpoint type.
type TCPEndpoint = transport.TCPEndpoint

// Tracing types: configure Config.Trace with NewTraceLog to observe the
// collectors (see internal/trace).
type (
	// TraceLog is a bounded, thread-safe event ring.
	TraceLog = trace.Log
	// TraceEvent is one recorded occurrence.
	TraceEvent = trace.Event
)

// NewTraceLog returns an event log retaining the most recent capacity
// events.
func NewTraceLog(capacity int) *TraceLog { return trace.New(capacity) }

// Journal event kinds most useful to embedders filtering a TraceLog or
// benchmarking emission overhead (the full set lives in internal/trace).
const (
	TraceKindCDMHandled = trace.KindCDMHandled
	TraceKindCDMSent    = trace.KindCDMSent
)

// Observability types: configure Config.Metrics with NewMetricsSet, render
// it as Prometheus text with its WriteText method, and read structural
// diagnostics via DebugSnapshot (see internal/obs and DESIGN.md §9).
type (
	// MetricsSet groups the per-node metric registries of one process (or
	// one simulated cluster); it is what /metrics serves.
	MetricsSet = obs.Set
	// MetricsRegistry is one labeled registry of counters, gauges and
	// histograms.
	MetricsRegistry = obs.Registry
	// NodeMetrics is the per-node instrument block (detections, LGC,
	// scions, mailbox, ...).
	NodeMetrics = obs.NodeMetrics
	// TransportMetrics is the per-endpoint instrument block (messages,
	// bytes, batches, dials, ...).
	TransportMetrics = obs.TransportMetrics
	// DebugSnapshot is the /debug/dgc JSON view of one node's collector
	// state, including inflight detections with their causal trace ids.
	DebugSnapshot = node.DebugSnapshot
)

// NewMetricsSet returns an empty metrics set; pass it as Config.Metrics to
// every node that should publish into it.
func NewMetricsSet() *MetricsSet { return obs.NewSet() }

// NewMetricsRegistry returns a standalone unlabeled registry (useful for
// transport metrics or tests).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewNodeMetrics registers (or rebinds) the node instrument block in reg.
func NewNodeMetrics(reg *MetricsRegistry) *NodeMetrics { return obs.NewNodeMetrics(reg) }

// NewTransportMetrics registers (or rebinds) the transport instrument block
// in reg; hand it to (*TCPEndpoint).SetMetrics or (*Network).SetMetrics.
func NewTransportMetrics(reg *MetricsRegistry) *TransportMetrics {
	return obs.NewTransportMetrics(reg)
}

// GCTraffic returns the message kinds belonging to the garbage collector's
// own protocol (NewSetStubs, CDM, BatchCDM). Use it as
// Faults.Affects to inject faults into collector traffic only — the paper's
// loss-tolerance claim is about these messages; application RPCs have their
// own delivery semantics.
func GCTraffic() []wire.Kind { return wire.CollectorKinds() }

// Workload constructors (see internal/workload for details).
var (
	// Ring builds a distributed garbage cycle over procs processes with
	// chain objects each — the generalized Figure 3.
	Ring = workload.Ring
	// Figure1, Figure3 and Figure4 are the paper's figures verbatim.
	Figure1 = workload.Figure1
	Figure3 = workload.Figure3
	Figure4 = workload.Figure4
	// AcyclicChain is purely acyclic distributed garbage.
	AcyclicChain = workload.AcyclicChain
	// RandomGraph builds a seeded random distributed graph.
	RandomGraph = workload.RandomGraph
)
