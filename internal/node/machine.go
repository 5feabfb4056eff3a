package node

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"dgc/internal/core"
	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/lgc"
	"dgc/internal/membership"
	"dgc/internal/obs"
	"dgc/internal/refs"
	"dgc/internal/trace"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// Machine is the pure protocol core of one process: the object heap, the
// local collector, the reference-listing tables and acyclic DGC, the
// snapshot summarizer, the cycle detector and the remote-invocation
// machinery — with no lock and no transport. Every input (a mutator
// operation, an incoming wire message, a daemon run, a clock advance)
// mutates the machine and accumulates its outputs as an explicit effect
// list (outbound messages) that the driver drains with TakeEffects and
// transmits however it likes.
//
// A Machine is NOT safe for concurrent use: its driver, Node, serializes
// inputs — on a mailbox goroutine when started, under a mutex on the
// caller's goroutine when stepped.
type Machine struct {
	id       ids.NodeID
	cfg      Config
	heap     *heap.Heap
	table    *refs.Table
	lgc      *lgc.Collector
	detector *core.Detector
	summary  *core.Summary

	clock       uint64
	snapVersion uint64

	// sweptOffSchedule is set once a stub set's collection has run since the
	// last Tick, and sweepDue when a further scion-deleting stub set arrived
	// after it, which makes the next Tick a collection tick. Both are counted
	// in ticks, never wall time, and neither is persisted: a restored machine
	// waits for its schedule.
	sweptOffSchedule bool
	sweepDue         bool

	methods map[string]Method

	nextCallID   uint64
	pendingCalls map[uint64]*pendingCall

	nextExportID   uint64
	pendingExports map[uint64]*pendingExport

	// pins counts in-flight references that must keep their stubs across
	// local collections (exported args, pending call targets).
	pins map[ids.GlobalRef]int

	// batch parks CDM traffic per destination node until the next flush;
	// every Send the detector returns is appended to it. It is open for the
	// machine's life and TakeEffects closes it, so one flush groups every
	// input the driver fed in since the last one (DESIGN.md §11).
	batch *cdmBatcher

	// memb is the elastic-membership state: the gossip directory, whose
	// lease length guards scion reclamation through the table's holder
	// leases. Nil when Config.Membership is nil (the simulator's
	// static-directory mode), and every membership code path guards on
	// that. membGossiped records, per peer, the directory version last
	// pushed to it, so piggybacked gossip only rides along when the peer's
	// view may be stale.
	memb         *membership.Tracker
	membGossiped map[ids.NodeID]uint64

	// met is the node's observability instrument block (a private registry
	// when Config.Metrics is nil, so no instrumentation site needs a guard)
	// and the only record of what the node did: every reader reads it
	// through Metrics. Metric
	// observations may read the wall clock but never feed back into
	// protocol decisions, keeping the machine's behaviour deterministic.
	met *obs.NodeMetrics

	// inflight tracks the detections the inputs since the last flush touch,
	// for the per-detection latency histogram: keyed by detection, holding
	// the wall-clock time of first sight here. It is per-flush state
	// (trackDetection): empty after TakeEffects.
	inflight map[core.DetectionID]time.Time

	// lastLGC/lastSummarize timestamp the most recent daemon runs, for the
	// /debug/dgc snapshot.
	lastLGC       time.Time
	lastSummarize time.Time

	// out accumulates the outbound-message effects of the inputs since the
	// last TakeEffects.
	out []transport.Envelope

	// acks holds, per exporter, the CreateScionAck already in out: the
	// CreateScions handled since the last TakeEffects answer in one message
	// (ackExport). TakeEffects empties it.
	acks map[ids.NodeID]*wire.CreateScionAck
}

// cdmBatcher parks the CDM traffic of every input since the last flush
// (detection rounds and delivered CDMs/BatchCDMs), grouped per destination
// node with one section per (outgoing edge, detection), plus partial returns
// grouped per origin. Flushing emits at most one forward message per peer (a
// plain CDM for a single section, a BatchCDM otherwise) in node-name order.
type cdmBatcher struct {
	peers map[ids.NodeID]*peerBatch
	order []ids.NodeID // peer insertion order; sorted at flush

	rets     map[ids.NodeID][]wire.BatchSection
	retIndex map[core.DetectionID]int // det → its section in rets[det.Origin]
	retOrder []ids.NodeID
	retHops  int
}

// outSection is one buffered (detection, algebra) pair bound for an edge.
type outSection struct {
	det   core.DetectionID
	along ids.RefID
	alg   core.Alg
	hops  int
}

// edgeDet names a section within a peer's batch.
type edgeDet struct {
	along ids.RefID
	det   core.DetectionID
}

type peerBatch struct {
	secs  []outSection
	index map[edgeDet]int
}

// add buffers one detector fan-out. A later derivation of a detection
// already buffered for an edge supersedes the earlier one: while the view
// both came from is alive its algebra only grows, so the newest derivation
// subsumes what it replaces. Every reset of the detector's views flushes the
// batcher first (Summarize, Step.Reset), so no section outlives its view.
// The derivation is shared, unflattened, by every outgoing message of the
// fan-out: in-process receivers merge it directly, and a BatchCDM builds its
// wire dictionary once for the transport to size and encode.
func (b *cdmBatcher) add(det core.DetectionID, s core.Send) {
	for _, along := range s.Alongs {
		to := along.Dst.Node
		pb := b.peers[to]
		if pb == nil {
			pb = &peerBatch{index: make(map[edgeDet]int)}
			b.peers[to] = pb
			b.order = append(b.order, to)
		}
		sec := outSection{det: det, along: along, alg: s.Alg, hops: s.Hops}
		key := edgeDet{along, det}
		if i, ok := pb.index[key]; ok {
			pb.secs[i] = sec
			continue
		}
		pb.index[key] = len(pb.secs)
		pb.secs = append(pb.secs, sec)
	}
}

// addReturn buffers one partial-match result bound for the detection's
// origin. alg must be safe to share (the detector returns a clone). A
// detection that arrived along two references can be cut twice before a
// flush; its later return supersedes the earlier, as in add, so the origin
// gets one section per detection.
func (b *cdmBatcher) addReturn(det core.DetectionID, alg core.Alg, hops int) {
	s := wire.NewBatchSection(det, ids.RefID{}, alg)
	if i, ok := b.retIndex[det]; ok {
		b.rets[det.Origin][i] = s
	} else {
		if _, ok := b.rets[det.Origin]; !ok {
			b.retOrder = append(b.retOrder, det.Origin)
		}
		b.retIndex[det] = len(b.rets[det.Origin])
		b.rets[det.Origin] = append(b.rets[det.Origin], s)
	}
	if hops > b.retHops {
		b.retHops = hops
	}
}

func newCDMBatcher() *cdmBatcher {
	return &cdmBatcher{
		peers:    make(map[ids.NodeID]*peerBatch),
		rets:     make(map[ids.NodeID][]wire.BatchSection),
		retIndex: make(map[core.DetectionID]int),
	}
}

type pendingCall struct {
	target   ids.GlobalRef
	pinned   []ids.GlobalRef
	cb       ReplyFunc
	deadline uint64 // clock tick after which the call expires (0 = never)
}

type pendingExport struct {
	waiting  []ids.NodeID // owners yet to acknowledge, one CreateScion each
	failed   bool
	errMsg   string
	ready    func(ok bool, errMsg string) // continuation inside the machine
	deadline uint64                       // as pendingCall.deadline
}

// NewMachine assembles the protocol core for process id.
func NewMachine(id ids.NodeID, cfg Config) *Machine {
	m := &Machine{
		id:             id,
		cfg:            cfg,
		heap:           heap.New(id),
		table:          refs.NewTable(id),
		methods:        make(map[string]Method),
		pendingCalls:   make(map[uint64]*pendingCall),
		pendingExports: make(map[uint64]*pendingExport),
		pins:           make(map[ids.GlobalRef]int),
		inflight:       make(map[core.DetectionID]time.Time),
		batch:          newCDMBatcher(),
		acks:           make(map[ids.NodeID]*wire.CreateScionAck),
	}
	m.met = obs.NewNodeMetrics(cfg.Metrics.Node(string(id)))
	m.lgc = lgc.New(m.heap, m.table)
	if cfg.Membership != nil {
		mc := cfg.Membership.WithDefaults()
		m.cfg.Membership = &mc
		m.memb = membership.NewTracker(id, "", mc)
		m.membGossiped = make(map[ids.NodeID]uint64)
	}
	m.detector = core.NewDetector(id)
	registerBuiltins(m)
	return m
}

// ID returns the process identifier.
func (m *Machine) ID() ids.NodeID { return m.id }

// Metrics returns the machine's instrument block. Instruments are atomic
// and safe to read from any goroutine.
func (m *Machine) Metrics() *obs.NodeMetrics { return m.met }

// syncGauges refreshes the instantaneous-state gauges from the heap and
// tables; called from the daemon paths and With, the inputs that can change
// them in bulk.
func (m *Machine) syncGauges() {
	m.met.HeapObjects.Set(int64(m.heap.Len()))
	m.met.Scions.Set(int64(m.table.NumScions()))
	m.met.Stubs.Set(int64(m.table.NumStubs()))
	m.met.PendingCalls.Set(int64(len(m.pendingCalls)))
}

// flushCDMBatch emits the parked traffic and empties the batcher: per peer
// in name order, one plain CDM for a single section or one BatchCDM for
// several, its sections in canonical edge order and, per edge, in derivation
// order, so the receiver's schedule depends on nothing but the inputs; then
// the partial returns, one BatchCDM per origin.
func (m *Machine) flushCDMBatch() {
	b := m.batch
	if len(b.order) == 0 && len(b.retOrder) == 0 {
		return
	}
	m.filterDeadPeers(b)
	ids.SortNodeIDs(b.order)
	for _, to := range b.order {
		pb := b.peers[to]
		if len(pb.secs) == 1 {
			s := pb.secs[0]
			m.emitT(trace.KindCDMSent, s.det, "det=%s/%d to=%s along=%s hops=%d",
				s.det.Origin, s.det.Seq, to, s.along, s.hops)
			m.send(to, wire.NewCDMFromAlg(s.det, s.along, s.alg, s.hops, 0))
			continue
		}
		// Every along leads from this node into to: its object orders it.
		slices.SortStableFunc(pb.secs, func(x, y outSection) int {
			return cmp.Compare(x.along.Dst.Obj, y.along.Dst.Obj)
		})
		secs := make([]wire.BatchSection, len(pb.secs))
		hops := 0
		for i, s := range pb.secs {
			secs[i] = wire.NewBatchSection(s.det, s.along, s.alg)
			if s.hops > hops {
				hops = s.hops
			}
			m.emitT(trace.KindCDMSent, s.det, "det=%s/%d to=%s along=%s hops=%d batched",
				s.det.Origin, s.det.Seq, to, s.along, s.hops)
		}
		m.met.BatchCDMsSent.Inc()
		m.met.BatchSections.Observe(float64(len(secs)))
		m.emit(trace.KindBatchCDM, "to=%s sections=%d hops=%d sent", to, len(secs), hops)
		m.send(to, wire.NewBatchCDM(hops, false, secs))
	}
	for _, origin := range b.retOrder {
		m.emit(trace.KindBatchCDM, "to=%s sections=%d hops=%d return sent",
			origin, len(b.rets[origin]), b.retHops)
		m.send(origin, wire.NewBatchCDM(b.retHops, true, b.rets[origin]))
	}
	m.batch = newCDMBatcher()
}

// trackDetection records a detection for causal tracing, stamping its first
// sight at this node. No entry outlives the next flush: by then the
// detection has ended here or left forwarded, returned or dropped (a ring
// closes at its last process), so TakeEffects drops the entry, and a later
// delivery tracks it afresh (§3.2: no state about detections in course).
func (m *Machine) trackDetection(det core.DetectionID) {
	if _, ok := m.inflight[det]; !ok {
		m.inflight[det] = time.Now()
	}
}

// detectionDone observes the detection's latency at this node (first sight
// to terminal outcome), emits the journal's terminal event, and stops
// tracking it. outcome names the verdict ("cycle-found", "aborted",
// "race-dropped") for the detection-end event dgcctl's stream-driven
// follow terminates on.
func (m *Machine) detectionDone(det core.DetectionID, outcome string) {
	first, ok := m.inflight[det]
	if !ok {
		return
	}
	m.emitT(trace.KindDetectionEnd, det, "det=%s/%d outcome=%s", det.Origin, det.Seq, outcome)
	m.met.DetectionLatency.Observe(time.Since(first).Seconds())
	delete(m.inflight, det)
}

// TakeEffects flushes the parked detection traffic and returns the outbound
// messages accumulated since the last call, transferring ownership to the
// caller (the machine starts a fresh buffer). A stepped driver calls it after
// every input, a started one once per drained window (Node.loop); the order
// of the slice is the order the protocol produced the sends in, which the
// driver must preserve (simulated runs are reproducible only if it does).
func (m *Machine) TakeEffects() []transport.Envelope {
	m.flushCDMBatch()
	// Every detection still tracked was first seen since the last flush, and
	// none outlives it (trackDetection).
	clear(m.inflight)
	clear(m.acks)
	out := m.out
	m.out = nil
	return out
}

// send appends one outbound message effect, piggybacking a membership gossip
// on the same envelope burst when the destination's view is stale.
func (m *Machine) send(to ids.NodeID, msg wire.Message) {
	m.out = append(m.out, transport.Envelope{To: to, Msg: msg})
	m.maybePiggybackGossip(to, msg)
}

// Clock returns the machine's logical time.
func (m *Machine) Clock() uint64 { return m.clock }

// NumObjects returns the current heap size.
func (m *Machine) NumObjects() int { return m.heap.Len() }

// NumScions returns the number of incoming-reference scions.
func (m *Machine) NumScions() int { return m.table.NumScions() }

// NumStubs returns the number of outgoing-reference stubs.
func (m *Machine) NumStubs() int { return m.table.NumStubs() }

// CloneHeap returns a deep copy of the machine's heap, for ground-truth
// analysis by harnesses and tests.
func (m *Machine) CloneHeap() *heap.Heap { return m.heap.Clone() }

// ScionRefs returns the current scions as reference identifiers, in
// canonical order.
func (m *Machine) ScionRefs() []ids.RefID {
	out := make([]ids.RefID, 0, m.table.NumScions())
	for _, sc := range m.table.Scions() {
		out = append(out, sc.RefID(m.id))
	}
	return out
}

// RegisterMethod installs (or replaces) a remotely invocable method.
func (m *Machine) RegisterMethod(name string, fn Method) { m.methods[name] = fn }

// With runs fn with a Mutator over this machine: the scenario-building and
// method-handler entry point for direct heap manipulation. The state gauges
// are synced after it, so a body that seeds a fresh node shows in /metrics
// before the first tick.
func (m *Machine) With(fn func(mut Mutator)) {
	fn(Mutator{n: m})
	m.syncGauges()
}

// EnsureScionFor records an incoming reference from holder to the local
// object obj: the owner half of a reference grant. Exposed for harness
// bootstrap (cluster scenario construction); the protocol path is
// CreateScion/Ack.
func (m *Machine) EnsureScionFor(holder ids.NodeID, obj ids.ObjID) error {
	if !m.heap.Contains(obj) {
		return m.errf("EnsureScionFor: no object %d", obj)
	}
	if m.table.EnsureScion(holder, obj, m.clock) {
		m.met.ScionsCreated.Inc()
	}
	return nil
}

// HoldRemote makes the local object from hold the remote reference target,
// materializing the stub: the holder half of a reference grant. The caller
// must have arranged the owner's scion first (EnsureScionFor), preserving
// scion-before-stub.
func (m *Machine) HoldRemote(from ids.ObjID, target ids.GlobalRef) error {
	if target.Node == m.id {
		return m.heap.AddLocalRef(from, target.Obj)
	}
	if err := m.heap.AddRemoteRef(from, target); err != nil {
		return err
	}
	m.table.EnsureStub(target)
	return nil
}

// pin/unpin manage the in-flight reference set.
func (m *Machine) pin(ref ids.GlobalRef) {
	if ref.Node == m.id {
		return // own objects are protected by scions/roots, not pins
	}
	m.pins[ref]++
	// Materialize the stub immediately so the reference is valid.
	m.table.EnsureStub(ref)
}

func (m *Machine) unpin(ref ids.GlobalRef) {
	if ref.Node == m.id {
		return
	}
	if c := m.pins[ref]; c <= 1 {
		delete(m.pins, ref)
	} else {
		m.pins[ref] = c - 1
	}
}

func (m *Machine) pinnedRefs() []ids.GlobalRef {
	out := make([]ids.GlobalRef, 0, len(m.pins))
	for r := range m.pins {
		out = append(out, r)
	}
	ids.SortGlobalRefs(out)
	return out
}

// errf is an internal invariant violation reporter.
func (m *Machine) errf(format string, args ...any) error {
	return fmt.Errorf("node %s: %s", m.id, fmt.Sprintf(format, args...))
}

// emit records a trace event when tracing is configured. The trace log is
// an order-preserving, lock-protected in-memory sink, not transport I/O,
// so the machine writes it directly rather than routing it through the
// effect list.
func (m *Machine) emit(kind trace.Kind, format string, args ...any) {
	if m.cfg.Trace != nil {
		m.cfg.Trace.Emit(m.id, kind, format, args...)
	}
}

// emitT records a trace event about detection det, tagged with its causal
// trace id (core.TraceIDFor), the key the timeline assembler merges per-node
// streams on. Every node derives the id from det, so no message carries it.
func (m *Machine) emitT(kind trace.Kind, det core.DetectionID, format string, args ...any) {
	if m.cfg.Trace != nil {
		m.cfg.Trace.EmitTraced(m.id, kind, core.TraceIDFor(det), format, args...)
	}
}

// Journal returns the machine's event journal (nil when tracing is not
// configured). The log itself is safe for concurrent use from any
// goroutine; the config pointer is immutable after construction.
func (m *Machine) Journal() *trace.Log { return m.cfg.Trace }
