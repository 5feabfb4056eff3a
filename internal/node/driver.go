package node

import (
	"errors"
	"sync"
	"time"

	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/lgc"
	"dgc/internal/membership"
	"dgc/internal/snapshot"
	"dgc/internal/trace"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// ErrRuntimeClosed is returned by a started node's entry points after Close.
var ErrRuntimeClosed = errors.New("node: runtime closed")

// RuntimeConfig tunes the started scheduler. The daemon schedule is not
// here: a started node runs Machine.Tick every Tick of real time, and
// Config.LGCEvery / SnapshotEvery / DetectEvery say which ticks run what,
// exactly as on a stepped node.
type RuntimeConfig struct {
	// Tick is the period of the node's one clock: each tick advances logical
	// time (call expiry, candidate aging, membership) and runs the daemons
	// due on it. Default 100ms.
	Tick time.Duration
	// LGCInterval, SnapshotInterval and DetectInterval are the daemon periods
	// as real time, rounded to whole ticks by everyTicks.
	//
	// Deprecated: set Config.LGCEvery / SnapshotEvery / DetectEvery. Kept
	// only because the frozen benchmark/ module sets them; they go when
	// benchmark/ is next unfrozen.
	LGCInterval, SnapshotInterval, DetectInterval time.Duration
	// Mailbox bounds the event queue. Inbound transport messages beyond it
	// are dropped (the protocol tolerates loss — blocking the transport's
	// read loop instead could deadlock a cycle of full nodes); local API
	// calls always block until queued. Default 1024.
	Mailbox int
}

func (c RuntimeConfig) withDefaults() RuntimeConfig {
	if c.Tick <= 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.Mailbox <= 0 {
		c.Mailbox = 1024
	}
	return c
}

// everyTicks resolves one daemon's period in ticks: every when it is set,
// otherwise the deprecated wall-clock interval rounded to whole ticks (at
// least one, so a non-zero interval never disables its daemon).
func everyTicks(every uint64, interval, tick time.Duration) uint64 {
	if every != 0 || interval <= 0 {
		return every
	}
	return max(1, uint64((interval+tick/2)/tick))
}

// rtEvent is one mailbox entry: an inbound message (msg != nil) or a local
// call (fn != nil, done closed after the effects are on the wire).
type rtEvent struct {
	from ids.NodeID
	msg  wire.Message
	fn   func(m *Machine)
	done chan struct{}
}

// Node is the driver over a Machine: one process of the distributed system
// with a blocking, goroutine-safe API. It has one way in — enter, which
// gives one input at a time exclusive ownership of the machine — and one way
// out — send, which puts the machine's effects on the transport. Two
// schedulers decide which goroutine runs an input and who says Tick, and
// nothing else differs between them — the daemon schedule is Machine.Tick
// on both:
//
//   - started (NewLiveRuntime, RestoreLiveRuntime): a goroutine owns the
//     machine outright and consumes a bounded mailbox of inputs — transport
//     deliveries and local calls — plus one wall-clock ticker that says
//     Tick, flushing the effects of each before taking the next. The engine
//     behind cmd/dgc-node, dgcctl up and examples/tcpcluster.
//   - stepped (New, Restore): no goroutine and no wall clock. An input runs
//     on its caller's goroutine under the node's mutex, and the caller says
//     Tick. The deterministic simulator (internal/cluster) steps every node
//     in canonical order, which is what makes a simulated run a pure
//     function of its seed.
//
// Either way the transport is never entered while an input owns the machine:
// the loop sends between inputs, a stepped caller after releasing the mutex.
type Node struct {
	mach *Machine
	ep   transport.Endpoint
	rcfg RuntimeConfig

	// mu is the stepped scheduler: it serializes inputs arriving from
	// different goroutines. Unused once a loop owns the machine.
	mu sync.Mutex

	// mailbox is the started scheduler's input queue; nil means stepped.
	mailbox chan rtEvent
	quit    chan struct{}
	wg      sync.WaitGroup

	// closeMu serializes local-call enqueues against Close: enqueues hold
	// the read side across the mailbox send, so once Close holds the write
	// side and sets closed, no further event can commit and the loop's
	// final drain unblocks every caller that did.
	closeMu   sync.RWMutex
	closed    bool
	closeOnce sync.Once
}

// LiveRuntime is the name a started Node goes by in the public API.
type LiveRuntime = Node

// New assembles a stepped node over the given endpoint and installs its
// message handler. The endpoint must not deliver messages before New returns.
func New(id ids.NodeID, ep transport.Endpoint, cfg Config) *Node {
	return newNode(NewMachine(id, cfg), ep, nil)
}

// Restore reconstructs a stepped node from state produced by Save, attaching
// it to the given endpoint with the given configuration. The node resumes as
// if it had merely been slow: peers' reference-listing state remains valid,
// in-flight detections involving it abort safely and restart later.
func Restore(ep transport.Endpoint, cfg Config, data []byte) (*Node, error) {
	mach, err := RestoreMachine(cfg, data)
	if err != nil {
		return nil, err
	}
	return newNode(mach, ep, nil), nil
}

// NewLiveRuntime assembles a started node over the endpoint: its event loop
// and clock run until Close. The caller retains ownership of the
// endpoint and closes it separately.
func NewLiveRuntime(id ids.NodeID, ep transport.Endpoint, cfg Config, rcfg RuntimeConfig) *LiveRuntime {
	return newNode(NewMachine(id, cfg), ep, &rcfg)
}

// RestoreLiveRuntime reconstructs a started node from state produced by Save
// (see RestoreMachine for the recovery semantics).
func RestoreLiveRuntime(ep transport.Endpoint, cfg Config, rcfg RuntimeConfig, data []byte) (*LiveRuntime, error) {
	mach, err := RestoreMachine(cfg, data)
	if err != nil {
		return nil, err
	}
	return newNode(mach, ep, &rcfg), nil
}

// newNode wraps a machine in its driver: stepped when rcfg is nil, started
// otherwise. The delivery handler is installed last, once the node is
// complete — a listening endpoint may deliver from that moment on.
func newNode(mach *Machine, ep transport.Endpoint, rcfg *RuntimeConfig) *Node {
	n := &Node{mach: mach, ep: ep}
	if rcfg != nil {
		n.rcfg = rcfg.withDefaults()
		c, r := &mach.cfg, n.rcfg
		c.LGCEvery = everyTicks(c.LGCEvery, r.LGCInterval, r.Tick)
		c.SnapshotEvery = everyTicks(c.SnapshotEvery, r.SnapshotInterval, r.Tick)
		c.DetectEvery = everyTicks(c.DetectEvery, r.DetectInterval, r.Tick)
		n.mailbox = make(chan rtEvent, n.rcfg.Mailbox)
		n.quit = make(chan struct{})
		mach.met.MailboxCapacity.Set(int64(n.rcfg.Mailbox))
		n.wg.Add(1)
		go n.loop()
	}
	if ep != nil {
		ep.SetHandler(n.handleMessage)
	}
	return n
}

// handleMessage is the transport delivery entry point. A stepped node runs
// the delivery as one more input and hands the effects back for the
// transport to send after the handler has returned (the effect contract of
// transport.Handler). A started node enqueues and returns: its loop sends
// any response itself, and a full mailbox drops the message — every
// protocol layer tolerates loss, and blocking here would stall the
// transport's read loop (and, transitively, a cycle of loaded nodes).
func (n *Node) handleMessage(from ids.NodeID, msg wire.Message) []transport.Envelope {
	if n.mailbox == nil {
		outs, _ := n.enter("HandleMessage", func(m *Machine) { m.HandleMessage(from, msg) })
		return outs
	}
	select {
	case n.mailbox <- rtEvent{from: from, msg: msg}:
	default:
		n.mach.met.MailboxDropped.Inc()
		// The journal is a lock-protected sink and cfg is immutable, so
		// emitting from the transport's delivery goroutine is safe.
		n.mach.emit(trace.KindMailboxDrop, "from=%s kind=%s", from, msg.Kind())
	}
	return nil
}

// enter is the one way in: it runs fn as a single machine input and returns
// the effects the caller still has to send. entry names the public method
// for the re-entrancy diagnostic — a Method, ReplyFunc or With callback
// that calls back into the node would deadlock on either scheduler, so the
// guard panics instead.
//
// Stepped, fn runs here under the mutex and its effects are handed back, to
// leave once the mutex is released. Started, fn is queued behind whatever the
// loop is doing and enter blocks until the loop has run it and flushed its
// effects (so nothing is handed back); after Close it returns
// ErrRuntimeClosed with fn not run. A panic raised by fn on the loop —
// including the guard tripping inside a callback — is captured there and
// re-raised here on the caller's goroutine, so a misbehaving callback does
// not take the event loop down with it.
func (n *Node) enter(entry string, fn func(m *Machine)) ([]transport.Envelope, error) {
	n.mach.guardReentry(entry)
	if n.mailbox == nil {
		n.mu.Lock()
		defer n.mu.Unlock()
		fn(n.mach)
		return n.effects(), nil
	}
	n.closeMu.RLock()
	if n.closed {
		n.closeMu.RUnlock()
		return nil, ErrRuntimeClosed
	}
	var pv any
	ev := rtEvent{done: make(chan struct{})}
	ev.fn = func(m *Machine) {
		defer func() { pv = recover() }()
		fn(m)
	}
	n.mailbox <- ev
	n.closeMu.RUnlock()
	<-ev.done
	if pv != nil {
		panic(pv)
	}
	return nil, nil
}

// do is enter for a local call: whatever comes back is sent from here.
func (n *Node) do(entry string, fn func(m *Machine)) error {
	outs, err := n.enter(entry, fn)
	n.send(outs)
	return err
}

// call runs a value-returning machine method as one input (the zero value
// after Close).
func call[T any](n *Node, entry string, fn func(m *Machine) T) T {
	var v T
	_ = n.do(entry, func(m *Machine) { v = fn(m) })
	return v
}

// callErr runs an error-returning machine method as one input.
func callErr(n *Node, entry string, fn func(m *Machine) error) error {
	var err error
	if derr := n.do(entry, func(m *Machine) { err = fn(m) }); derr != nil {
		return derr
	}
	return err
}

// maxKeptPeriod bounds the schedule period whose wall-clock phase the loop
// keeps: regaining phase costs up to one period of ticks, which a short
// period is worth and a parked daemon's (detect_every: 100000) is not.
const maxKeptPeriod = 16

// schedulePeriod is the number of ticks after which cfg's daemon schedule
// repeats, the least common multiple of the enabled daemons' periods; 1,
// which keeps no phase, when that exceeds maxKeptPeriod.
func schedulePeriod(cfg Config) uint64 {
next:
	for p := uint64(1); p <= maxKeptPeriod; p++ {
		for _, every := range [...]uint64{cfg.LGCEvery, cfg.SnapshotEvery, cfg.DetectEvery} {
			if every != 0 && p%every != 0 {
				continue next
			}
		}
		return p
	}
	return 1
}

// loop is the started scheduler: the single goroutine that owns the machine.
func (n *Node) loop() {
	defer n.wg.Done()

	// start is read before the ticker exists, so the k-th tick is never
	// stamped earlier than start + k·Tick.
	start, base := time.Now(), n.mach.clock
	tick := time.NewTicker(n.rcfg.Tick)
	defer tick.Stop()
	period := schedulePeriod(n.mach.cfg)

	// serve runs the wall tick stamped at as the machine's next tick, if it
	// is in phase. The ticker drops ticks while the loop is busy, and the
	// clock never runs ahead to make them up: failure detection counts
	// served ticks, so a node that was stalled does not conclude that its
	// peers were silent. But every dropped tick would also move this node's
	// daemon schedule one Tick against the wall, and against the peers
	// started with it, and members of a cluster that summarize out of step
	// lose a detection period per garbage ring (EXPERIMENTS.md "Schedule on
	// the live cluster"). So after a drop the loop lets ticks pass, fewer
	// than one schedule period of them, until the clock is whole periods
	// behind the wall.
	serve := func(at time.Time) {
		k := uint64(at.Sub(start) / n.rcfg.Tick)
		if next := n.mach.clock - base + 1; k%period != next%period {
			return
		}
		n.mach.Tick()
		n.flush()
	}

	for {
		// A due tick is served before the mailbox's next input. Left to one
		// select, a CDM that arrived at the deadline would meet the tick's
		// new summary or the previous one by a coin toss.
		select {
		case at := <-tick.C:
			serve(at)
		default:
		}
		select {
		case ev := <-n.mailbox:
			n.consume(ev)
		case at := <-tick.C:
			serve(at)
		case <-n.quit:
			// Drain events that committed before Close flipped closed, so
			// every blocked enter() caller unblocks, then exit.
			for {
				select {
				case ev := <-n.mailbox:
					n.consume(ev)
				default:
					return
				}
			}
		}
	}
}

// consume feeds one event to the machine and transmits its effects before
// signalling completion.
func (n *Node) consume(ev rtEvent) {
	n.mach.met.MailboxDepth.Set(int64(len(n.mailbox)))
	switch {
	case ev.msg != nil:
		n.mach.HandleMessage(ev.from, ev.msg)
	case ev.fn != nil:
		ev.fn(n.mach)
	}
	n.flush()
	if ev.done != nil {
		close(ev.done)
	}
}

// flush puts the effects of the loop's last input on the wire.
func (n *Node) flush() { n.send(n.effects()) }

// effects drains what the machine's last input produced, in production
// order. Transport addresses the membership directory learned through gossip
// are programmed into the endpoint first — a message to a just-discovered
// member needs its route — and endpoints without dynamic peer programming
// simply never learn new routes. Runs with the machine owned.
func (n *Node) effects() []transport.Envelope {
	if ups := n.mach.TakeAddrUpdates(); len(ups) > 0 {
		if ap, ok := n.ep.(interface{ AddPeer(ids.NodeID, string) }); ok {
			for _, u := range ups {
				if u.Node != n.mach.ID() && u.Addr != "" {
					ap.AddPeer(u.Node, u.Addr)
				}
			}
		}
	}
	return n.mach.TakeEffects()
}

// send is the one way out: it transmits effects in the order given, staging
// a multi-message burst so the TCP endpoint ships it as one batch frame per
// peer. Send errors are deliberately ignored: every protocol layer above
// tolerates message loss, and nothing is parked for a slow peer — overload is
// shed at the receiver's mailbox (handleMessage).
func (n *Node) send(outs []transport.Envelope) {
	if len(outs) == 0 || n.ep == nil {
		return
	}
	if st, ok := n.ep.(transport.Stager); ok && len(outs) > 1 {
		st.BeginStage()
		defer st.FlushStage()
	}
	for _, o := range outs {
		_ = n.ep.Send(o.To, o.Msg)
	}
}

// Close detaches the node from its endpoint and, when started, stops the
// loop and waits for it. Idempotent. Local calls enqueued before Close
// complete; later ones fail with ErrRuntimeClosed (a stepped node has no
// loop to stop and keeps answering). The endpoint itself stays open (the
// caller owns it).
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		if n.ep != nil {
			n.ep.SetHandler(nil)
		}
		if n.mailbox == nil {
			return
		}
		n.closeMu.Lock()
		n.closed = true
		n.closeMu.Unlock()
		close(n.quit)
		n.wg.Wait()
	})
	return nil
}

// ID returns the node identifier.
func (n *Node) ID() ids.NodeID { return n.mach.ID() }

// Journal returns the node's event journal (nil when tracing is not
// configured). Safe from any goroutine, even after Close: the journal is
// shared, concurrent-safe state, not machine-owned.
func (n *Node) Journal() *trace.Log { return n.mach.Journal() }

// DroppedInbound reports transport deliveries discarded on mailbox
// overflow since the node started. It reads the
// dgc_mailbox_dropped_total counter — the metric is the single source of
// truth for drop accounting (a shadow field here once drifted from it).
func (n *Node) DroppedInbound() uint64 { return n.mach.met.MailboxDropped.Value() }

// Every public method below is one machine input passed through do; after
// Close a started node returns ErrRuntimeClosed where the signature has an
// error and the zero value where it has not.

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats { return call(n, "Stats", (*Machine).Stats) }

// NumObjects returns the current heap size.
func (n *Node) NumObjects() int { return call(n, "NumObjects", (*Machine).NumObjects) }

// NumScions returns the number of incoming-reference scions.
func (n *Node) NumScions() int { return call(n, "NumScions", (*Machine).NumScions) }

// NumStubs returns the number of outgoing-reference stubs.
func (n *Node) NumStubs() int { return call(n, "NumStubs", (*Machine).NumStubs) }

// CloneHeap returns a deep copy of the node's heap, for ground-truth
// analysis by harnesses and tests.
func (n *Node) CloneHeap() *heap.Heap { return call(n, "CloneHeap", (*Machine).CloneHeap) }

// ScionRefs returns the node's current scions as reference identifiers, in
// canonical order.
func (n *Node) ScionRefs() []ids.RefID { return call(n, "ScionRefs", (*Machine).ScionRefs) }

// RegisterMethod installs (or replaces) a remotely invocable method.
func (n *Node) RegisterMethod(name string, fn Method) {
	_ = n.do("RegisterMethod", func(m *Machine) { m.RegisterMethod(name, fn) })
}

// With runs fn inside the machine with a Mutator: the scenario-building
// entry point for direct heap manipulation.
func (n *Node) With(fn func(m Mutator)) error {
	return n.do("With", func(m *Machine) { m.With(fn) })
}

// EnsureScionFor records an incoming reference from holder to the local
// object obj: the owner half of a reference grant (harness bootstrap; the
// protocol path is CreateScion/Ack).
func (n *Node) EnsureScionFor(holder ids.NodeID, obj ids.ObjID) error {
	return callErr(n, "EnsureScionFor", func(m *Machine) error { return m.EnsureScionFor(holder, obj) })
}

// HoldRemote makes the local object from hold the remote reference target,
// materializing the stub: the holder half of a reference grant. The caller
// must have arranged the owner's scion first (EnsureScionFor), preserving
// scion-before-stub.
func (n *Node) HoldRemote(from ids.ObjID, target ids.GlobalRef) error {
	return callErr(n, "HoldRemote", func(m *Machine) error { return m.HoldRemote(from, target) })
}

// Tick advances the node's logical clock by one, expires timed-out calls
// and runs the daemons Config schedules on the new tick. A stepped node's
// caller says Tick; a started node's loop does, every RuntimeConfig.Tick.
func (n *Node) Tick() { _ = n.do("Tick", (*Machine).Tick) }

// Clock returns the node's logical time.
func (n *Node) Clock() uint64 { return call(n, "Clock", (*Machine).Clock) }

// RunLGC performs one local collection immediately and emits NewSetStubs
// messages.
func (n *Node) RunLGC() lgc.Result { return call(n, "RunLGC", (*Machine).RunLGC) }

// Summarize takes a snapshot of the object graph and rebuilds the node's
// summarized graph description (§3 "Graph Summarization").
func (n *Node) Summarize() error { return callErr(n, "Summarize", (*Machine).Summarize) }

// RunDetection nominates cycle candidates from the current summary and
// starts detections. It returns the number started.
func (n *Node) RunDetection() int { return call(n, "RunDetection", (*Machine).RunDetection) }

// Summary returns the node's current summarized snapshot (nil before the
// first summarization). The summary is immutable; callers may read it
// freely.
func (n *Node) Summary() *snapshot.Summary { return call(n, "Summary", (*Machine).Summary) }

// Invoke performs an asynchronous remote invocation of method on target,
// exporting args to the callee. cb (optional) receives the reply inside the
// machine. Invoke returns once the request is on the wire, with an error
// only for immediately detectable misuse; transport failures surface as a
// failed or expired reply.
func (n *Node) Invoke(target ids.GlobalRef, method string, args []ids.GlobalRef, cb ReplyFunc) error {
	return callErr(n, "Invoke", func(m *Machine) error { return m.Invoke(target, method, args, cb) })
}

// AcquireRemote bootstraps possession of a remote reference: it runs the
// CreateScion protocol with the owner on this node's behalf and, once
// acknowledged, materializes a stub and invokes cb inside the machine. See
// Machine.AcquireRemote.
func (n *Node) AcquireRemote(ref ids.GlobalRef, cb func(m Mutator, ok bool)) error {
	return callErr(n, "AcquireRemote", func(m *Machine) error { return m.AcquireRemote(ref, cb) })
}

// Members returns the node's membership directory in canonical order (nil
// when Config.Membership is nil).
func (n *Node) Members() []membership.Member { return call(n, "Members", (*Machine).Members) }

// AddMember seeds a peer into the membership directory as joining.
func (n *Node) AddMember(node ids.NodeID, addr string) error {
	return callErr(n, "AddMember", func(m *Machine) error { return m.AddMember(node, addr) })
}

// BeginDrain starts this node's voluntary departure: its exported references
// are handed to their owners and the node gossips itself draining, then dead.
func (n *Node) BeginDrain() error { return callErr(n, "BeginDrain", (*Machine).BeginDrain) }

// SetAdvertiseAddr records the transport address this node gossips for
// itself, so joiners discovered through the directory can dial it.
func (n *Node) SetAdvertiseAddr(addr string) {
	_ = n.do("SetAdvertiseAddr", func(m *Machine) { m.SetSelfAddr(addr) })
}

// Save serializes the node's durable collector state. On a started node it
// is typically paired with Close: save, close, restart elsewhere with
// RestoreLiveRuntime.
func (n *Node) Save() ([]byte, error) {
	var data []byte
	err := callErr(n, "Save", func(m *Machine) (err error) { data, err = m.Save(); return })
	return data, err
}

// TableDump captures the node's current reference tables.
func (n *Node) TableDump() TableDump { return call(n, "TableDump", (*Machine).TableDump) }

// ForceDetect starts a detection at the given scion immediately.
func (n *Node) ForceDetect(candidate ids.RefID) (ForceDetectResult, error) {
	var res ForceDetectResult
	err := callErr(n, "ForceDetect", func(m *Machine) (err error) { res, err = m.ForceDetect(candidate); return })
	return res, err
}

// DebugSnapshot captures the node's current diagnostic view, with mailbox
// statistics when a loop is running.
func (n *Node) DebugSnapshot() DebugSnapshot {
	snap := call(n, "DebugSnapshot", (*Machine).DebugSnapshot)
	if n.mailbox != nil {
		snap.Mailbox = &MailboxStats{
			Depth:    len(n.mailbox),
			Capacity: n.rcfg.Mailbox,
			Dropped:  n.DroppedInbound(),
		}
	}
	return snap
}
