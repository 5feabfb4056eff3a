package node

import (
	"fmt"
	"sync/atomic"
	"time"

	"dgc/internal/core"
	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/lgc"
	"dgc/internal/membership"
	"dgc/internal/obs"
	"dgc/internal/refs"
	"dgc/internal/snapshot"
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
	acyclic  *refs.AcyclicDGC
	lgc      *lgc.Collector
	detector *core.Detector
	selector *core.Selector
	summary  *snapshot.Summary

	clock       uint64
	snapVersion uint64

	// sweptOffSchedule is set once a stub set's collection has run since the
	// last Tick, and sweepDue when a further scion-deleting stub set arrived
	// after it, which makes the next Tick a collection tick. Both are counted
	// in ticks, never wall time, and neither is persisted: a restored machine
	// waits for its schedule.
	sweptOffSchedule bool
	sweepDue         bool

	// sumHeapGen/sumTableGen record the heap and table mutation epochs at
	// the last summary rebuild; while both still match, Summarize is a
	// cache hit and skips re-encoding and re-summarizing.
	sumHeapGen  uint64
	sumTableGen uint64

	methods map[string]Method

	nextCallID   uint64
	pendingCalls map[uint64]*pendingCall

	nextExportID   uint64
	pendingExports map[uint64]*pendingExport

	// pins counts in-flight references that must keep their stubs across
	// local collections (exported args, pending call targets).
	pins map[ids.GlobalRef]int

	// cdmAcc accumulates, per detection, the union of every CDM algebra
	// delivered to this node together with the scions it arrived along
	// (see handleCDM). cdmAborted marks detections whose accumulated view
	// hit a counter conflict. Both are droppable cache state, cleared on
	// each summarization and when the cap is hit.
	cdmAcc     map[core.DetectionID]*detAcc
	cdmAborted map[core.DetectionID]struct{}

	// batch buffers the current input's CDM traffic per outgoing edge; the
	// detector's SendCDMs callback appends to it. Non-nil only between
	// beginCDMBatch and flushCDMBatch, which bracket every input that can
	// produce detection traffic.
	batch *cdmBatcher

	// memb/leases are the elastic-membership state: the gossip directory and
	// the per-holder lease table guarding scion reclamation. Both nil when
	// Config.Membership is nil (the simulator's static-directory mode), and
	// every membership code path guards on that. membGossiped records, per
	// peer, the directory version last pushed to it, so piggybacked gossip
	// only rides along when the peer's view may be stale.
	memb         *membership.Tracker
	leases       *refs.HolderLeases
	membGossiped map[ids.NodeID]uint64

	stats Stats

	// met is the node's observability instrument block (a private registry
	// when Config.Metrics is nil, so no instrumentation site needs a guard).
	// Metric observations may read the wall clock but never feed back into
	// protocol decisions, keeping the machine's behaviour deterministic.
	met *obs.NodeMetrics

	// inflight tracks detections currently known to this node for causal
	// tracing and the per-detection latency histogram: keyed by detection,
	// carrying the trace id and the wall-clock time of first sight here.
	// Droppable cache (bounded by inflightCap, aged out on clock advances):
	// losing an entry only loses a latency sample.
	inflight map[core.DetectionID]detInflight

	// lastLGC/lastSummarize timestamp the most recent daemon runs, for the
	// /debug/dgc snapshot.
	lastLGC       time.Time
	lastSummarize time.Time

	// out accumulates the outbound-message effects of the current input.
	// The driver drains it with TakeEffects after every input it feeds in.
	out []transport.Envelope

	// cbGoid holds the id of the goroutine currently executing a
	// user-provided callback (Method handler, ReplyFunc, With body), zero
	// otherwise. The driver reads it from other goroutines to turn callback
	// re-entrance into a panic instead of a deadlock; hence atomic.
	cbGoid atomic.Uint64
}

// detAcc is one detection's accumulated state at this node.
type detAcc struct {
	alg    core.Alg
	alongs map[ids.RefID]struct{} // scions this detection arrived along
	// alongsSorted caches the alongs set in canonical order; maintained
	// incrementally so each delivery iterates without rebuilding it.
	alongsSorted []ids.RefID
	// first is when this accumulator was created, for the /debug/dgc
	// per-detection age report. Wall clock: diagnostic only, never read by
	// the protocol.
	first time.Time
	// ver counts changes to alg; retVer is ver at the last aggregation-mode
	// partial return, so an unchanged accumulator never returns twice.
	ver    uint64
	retVer uint64
}

// cdmBatcher buffers the CDM traffic of one machine input (a detection
// round or one delivered CDM/BatchCDM), grouped per outgoing edge with one
// section per detection, plus aggregation-mode partial returns grouped per
// origin. Flushing emits one message per edge (a plain CDM for single
// sections, a BatchCDM otherwise) in canonical edge order.
type cdmBatcher struct {
	edges map[ids.RefID]*edgeBatch
	order []ids.RefID // edge insertion order; sorted canonically at flush

	rets     map[ids.NodeID][]wire.BatchSection
	retOrder []ids.NodeID
	retHops  int
}

// outSection is one buffered (detection, algebra) pair bound for an edge.
type outSection struct {
	det   core.DetectionID
	trace uint64
	alg   core.Alg
	hops  int
}

type edgeBatch struct {
	secs  []outSection
	index map[core.DetectionID]int
}

// add buffers one detector fan-out. A later derivation of a detection
// already buffered for an edge supersedes the earlier one: within one input
// the accumulated algebra only grows, so the newest derivation subsumes
// what it replaces.
func (b *cdmBatcher) add(det core.DetectionID, trace uint64, alongs []ids.RefID, alg core.Alg, hops int) {
	for _, along := range alongs {
		eb := b.edges[along]
		if eb == nil {
			eb = &edgeBatch{index: make(map[core.DetectionID]int)}
			b.edges[along] = eb
			b.order = append(b.order, along)
		}
		if i, ok := eb.index[det]; ok {
			eb.secs[i] = outSection{det: det, trace: trace, alg: alg, hops: hops}
			continue
		}
		eb.index[det] = len(eb.secs)
		eb.secs = append(eb.secs, outSection{det: det, trace: trace, alg: alg, hops: hops})
	}
}

// addReturn buffers one partial-match result bound for the detection's
// origin. alg must be safe to share (the caller clones the accumulator).
func (b *cdmBatcher) addReturn(det core.DetectionID, trace uint64, alg core.Alg, hops int) {
	if _, ok := b.rets[det.Origin]; !ok {
		b.retOrder = append(b.retOrder, det.Origin)
	}
	b.rets[det.Origin] = append(b.rets[det.Origin], wire.NewBatchSection(det, trace, alg))
	if hops > b.retHops {
		b.retHops = hops
	}
}

func newCDMBatcher() *cdmBatcher {
	return &cdmBatcher{
		edges: make(map[ids.RefID]*edgeBatch),
		rets:  make(map[ids.NodeID][]wire.BatchSection),
	}
}

// cdmAccCap bounds the per-detection accumulator cache; overflowing flushes
// it, which only costs repeated work.
const cdmAccCap = 1 << 10

// detInflight is one tracked detection: its causal trace id and when this
// node first saw it.
type detInflight struct {
	trace uint64
	first time.Time
}

// inflightCap bounds the inflight-detection table; overflowing flushes it,
// which only loses latency samples and debug visibility, never correctness.
const inflightCap = 1 << 12

// inflightMaxAge ages out tracked detections that never reached a terminal
// outcome at this node (e.g. the origin of a detection that ended
// elsewhere). Swept on clock advances.
const inflightMaxAge = 2 * time.Minute

type pendingCall struct {
	target   ids.GlobalRef
	pinned   []ids.GlobalRef
	cb       ReplyFunc
	deadline uint64 // clock tick after which the call expires (0 = never)
}

type pendingExport struct {
	waiting int // outstanding CreateScion acks
	failed  bool
	errMsg  string
	ready   func(ok bool, errMsg string) // continuation inside the machine
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
		cdmAcc:         make(map[core.DetectionID]*detAcc),
		cdmAborted:     make(map[core.DetectionID]struct{}),
		inflight:       make(map[core.DetectionID]detInflight),
	}
	m.met = obs.NewNodeMetrics(cfg.Metrics.Node(string(id)))
	m.acyclic = refs.NewAcyclicDGC(m.table)
	m.acyclic.EmptySetRepeats = cfg.EmptySetRepeats
	m.lgc = lgc.New(m.heap, m.table)
	m.selector = core.NewSelector(cfg.CandidateMinAge)
	if cfg.Membership != nil {
		mc := cfg.Membership.WithDefaults()
		m.cfg.Membership = &mc
		m.memb = membership.NewTracker(id, "", mc)
		m.leases = refs.NewHolderLeases(m.table, mc.LeaseTicks)
		m.membGossiped = make(map[ids.NodeID]uint64)
	}
	m.detector = core.NewDetector(id, cfg.Detector, (*detectorActions)(m))
	registerBuiltins(m)
	return m
}

// ID returns the process identifier.
func (m *Machine) ID() ids.NodeID { return m.id }

// Metrics returns the machine's instrument block. Instruments are atomic
// and safe to read from any goroutine.
func (m *Machine) Metrics() *obs.NodeMetrics { return m.met }

// syncGauges refreshes the instantaneous-state gauges from the heap and
// tables; called from the daemon paths, which are the only inputs that can
// change them in bulk.
func (m *Machine) syncGauges() {
	m.met.HeapObjects.Set(int64(m.heap.Len()))
	m.met.Scions.Set(int64(m.table.NumScions()))
	m.met.Stubs.Set(int64(m.table.NumStubs()))
	m.met.PendingCalls.Set(int64(len(m.pendingCalls)))
	m.met.DetectionsInflight.Set(int64(len(m.inflight)))
	m.met.DetectionInflightAge.Set(int64(m.oldestInflightAge(time.Now()).Seconds()))
}

// oldestInflightAge returns the age of the longest-tracked inflight
// detection (zero when none): the "stuck batch" signal behind the
// dgc_detection_inflight_age_seconds gauge.
func (m *Machine) oldestInflightAge(now time.Time) time.Duration {
	var oldest time.Duration
	for _, inf := range m.inflight {
		if age := now.Sub(inf.first); age > oldest {
			oldest = age
		}
	}
	return oldest
}

// beginCDMBatch arms per-edge CDM buffering for the current input;
// flushCDMBatch drains it.
func (m *Machine) beginCDMBatch() { m.batch = newCDMBatcher() }

// flushCDMBatch emits the buffered traffic: per edge in canonical order,
// one plain CDM for a single section or one BatchCDM for several; then the
// aggregation-mode partial returns, one BatchCDM per origin.
func (m *Machine) flushCDMBatch() {
	b := m.batch
	m.batch = nil
	m.filterDeadEdges(b)
	ids.SortRefIDs(b.order)
	for _, edge := range b.order {
		eb := b.edges[edge]
		if len(eb.secs) == 1 {
			s := eb.secs[0]
			m.stats.CDMMsgsSent++
			m.emitT(trace.KindCDMSent, s.trace, "det=%s/%d to=%s along=%s hops=%d",
				s.det.Origin, s.det.Seq, edge.Dst.Node, edge, s.hops)
			m.send(edge.Dst.Node, wire.NewCDMFromAlg(s.det, edge, s.alg, s.hops, s.trace))
			continue
		}
		secs := make([]wire.BatchSection, len(eb.secs))
		hops := 0
		for i, s := range eb.secs {
			secs[i] = wire.NewBatchSection(s.det, s.trace, s.alg)
			if s.hops > hops {
				hops = s.hops
			}
			m.emitT(trace.KindCDMSent, s.trace, "det=%s/%d to=%s along=%s hops=%d batched",
				s.det.Origin, s.det.Seq, edge.Dst.Node, edge, s.hops)
		}
		m.stats.CDMMsgsSent++
		m.stats.BatchCDMsSent++
		m.stats.BatchSectionsSent += uint64(len(secs))
		m.met.BatchCDMsSent.Inc()
		m.met.BatchSections.Observe(float64(len(secs)))
		m.emit(trace.KindBatchCDM, "to=%s sections=%d hops=%d sent", edge.Dst.Node, len(secs), hops)
		m.send(edge.Dst.Node, wire.NewBatchCDM(edge, hops, false, secs))
	}
	for _, origin := range b.retOrder {
		m.stats.CDMMsgsSent++
		m.emit(trace.KindBatchCDM, "to=%s sections=%d hops=%d return sent",
			origin, len(b.rets[origin]), b.retHops)
		m.send(origin, wire.NewBatchCDM(ids.RefID{}, b.retHops, true, b.rets[origin]))
	}
}

// trackDetection records a detection for causal tracing, stamping its first
// sight at this node.
func (m *Machine) trackDetection(det core.DetectionID, trace uint64) {
	if _, ok := m.inflight[det]; ok {
		return
	}
	if len(m.inflight) >= inflightCap {
		m.inflight = make(map[core.DetectionID]detInflight)
	}
	m.inflight[det] = detInflight{trace: trace, first: time.Now()}
	m.met.DetectionsInflight.Set(int64(len(m.inflight)))
}

// detectionDone observes the detection's latency at this node (first sight
// to terminal outcome), emits the journal's terminal event, and stops
// tracking it. outcome names the verdict ("cycle-found", "aborted",
// "race-dropped") for the detection-end event dgcctl's stream-driven
// follow terminates on.
func (m *Machine) detectionDone(det core.DetectionID, outcome string) {
	inf, ok := m.inflight[det]
	if !ok {
		return
	}
	m.emitT(trace.KindDetectionEnd, inf.trace, "det=%s/%d outcome=%s", det.Origin, det.Seq, outcome)
	m.met.DetectionLatency.Observe(time.Since(inf.first).Seconds())
	delete(m.inflight, det)
	m.met.DetectionsInflight.Set(int64(len(m.inflight)))
}

// TakeEffects returns the outbound messages accumulated since the last
// call, transferring ownership to the caller (the machine starts a fresh
// buffer). The driver calls it after every input and transmits the result;
// the order of the slice is the order the protocol produced the sends in,
// which the driver must preserve (simulated runs are reproducible only if it
// does).
func (m *Machine) TakeEffects() []transport.Envelope {
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

// callback invokes a user-provided callback (Method handler, ReplyFunc,
// AcquireRemote continuation, With body). While it runs, the machine
// records the executing goroutine so the driver's way in can detect
// re-entrance — a callback calling back into the public Node API, which
// would deadlock on the driver's mutex or mailbox — and panic with a
// diagnostic instead.
func (m *Machine) callback(fn func()) {
	prev := m.cbGoid.Load()
	m.cbGoid.Store(goid())
	defer m.cbGoid.Store(prev)
	fn()
}

// guardReentry panics when called from the goroutine that is currently
// executing one of this machine's user callbacks. entry names the public
// method for the diagnostic.
func (m *Machine) guardReentry(entry string) {
	if g := m.cbGoid.Load(); g != 0 && g == goid() {
		panic("node: " + entry + " re-entered from a Method/ReplyFunc/With callback; " +
			"callbacks run inside the machine and must use the Mutator they were handed " +
			"(m.Invoke, m.Store, ...) instead of calling public entry points, " +
			"which would deadlock")
	}
}

// Stats returns a copy of the machine's counters.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Clock = m.clock
	s.Detector = m.detector.Stats
	s.ExportsPending = uint64(len(m.pendingExports))
	return s
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
// method-handler entry point for direct heap manipulation.
func (m *Machine) With(fn func(mut Mutator)) {
	m.callback(func() { fn(Mutator{n: m}) })
}

// EnsureScionFor records an incoming reference from holder to the local
// object obj: the owner half of a reference grant. Exposed for harness
// bootstrap (cluster scenario construction); the protocol path is
// CreateScion/Ack.
func (m *Machine) EnsureScionFor(holder ids.NodeID, obj ids.ObjID) error {
	if !m.heap.Contains(obj) {
		return m.errf("EnsureScionFor: no object %d", obj)
	}
	if _, created := m.table.EnsureScion(holder, obj); created {
		m.stats.ScionsCreated++
		m.met.ScionsCreated.Inc()
	}
	m.selector.Touch(ids.RefID{Src: holder, Dst: ids.GlobalRef{Node: m.id, Obj: obj}}, m.clock)
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

// emitT records a trace event carrying a detection's causal trace id, the
// key the timeline assembler merges per-node streams on.
func (m *Machine) emitT(kind trace.Kind, traceID uint64, format string, args ...any) {
	if m.cfg.Trace != nil {
		m.cfg.Trace.EmitTraced(m.id, kind, traceID, format, args...)
	}
}

// Journal returns the machine's event journal (nil when tracing is not
// configured). The log itself is safe for concurrent use from any
// goroutine; the config pointer is immutable after construction.
func (m *Machine) Journal() *trace.Log { return m.cfg.Trace }
