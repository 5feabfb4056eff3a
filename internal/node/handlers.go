package node

import (
	"time"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/trace"
	"dgc/internal/wire"
)

// HandleMessage feeds one delivered protocol message into the machine. from
// is the sender as the transport names it, and the only name a handler acts
// on: no message names its sender. Unknown messages are ignored (datagram
// semantics). Any sends the message triggers (CDM fan-out, acks, replies)
// accumulate as effects for the driver to transmit.
func (m *Machine) HandleMessage(from ids.NodeID, msg wire.Message) {
	m.observeMember(from)
	switch msg := msg.(type) {
	case *wire.InvokeRequest:
		m.handleInvokeRequest(from, msg)
	case *wire.InvokeReply:
		m.handleInvokeReply(from, msg)
	case *wire.CreateScion:
		m.handleCreateScion(from, msg)
	case *wire.CreateScionAck:
		m.handleCreateScionAck(from, msg)
	case *wire.NewSetStubs:
		m.handleNewSetStubs(from, msg)
	case *wire.CDM:
		m.handleCDM(msg)
	case *wire.BatchCDM:
		m.handleBatchCDM(from, msg)
	case *wire.Gossip:
		m.handleGossip(from, msg)
	case *wire.LeaseHandoff:
		m.handleLeaseHandoff(from, msg)
	default:
		// Baseline traffic and future kinds are not for this handler.
	}
}

// handleCDM delivers an arriving cycle detection message to the detector.
func (m *Machine) handleCDM(msg *wire.CDM) {
	m.deliver(core.Section{Det: msg.Det, Along: msg.Along, Hops: int(msg.Hops), Carried: msg})
}

// handleBatchCDM delivers a multi-candidate detection message section by
// section, each exactly as a standalone CDM along its own reference (or, for
// a return message, as a partial return); the surviving forwards are
// re-grouped per peer by the machine's cdmBatcher.
func (m *Machine) handleBatchCDM(from ids.NodeID, msg *wire.BatchCDM) {
	if len(msg.Sections) == 0 {
		return // decoder rejects these; in-process senders never build them
	}
	if m.cfg.Trace != nil {
		if msg.Return {
			m.emit(trace.KindBatchCDM, "sections=%d hops=%d return received", len(msg.Sections), msg.Hops)
		} else {
			m.emit(trace.KindBatchCDM, "from=%s sections=%d hops=%d received",
				from, len(msg.Sections), msg.Hops)
		}
	}
	for i := range msg.Sections {
		s := &msg.Sections[i]
		m.deliver(core.Section{Det: s.Det, Along: s.Along, Hops: int(msg.Hops), Return: msg.Return, Carried: s})
	}
}

// deliver hands one section to the detector, which merges it into the
// detection's view here and evaluates it (core.Detector.Deliver), and
// carries out and records what came back, in the order the detector did it.
func (m *Machine) deliver(sec core.Section) {
	det := sec.Det
	if sec.Return {
		if det.Origin != m.id {
			return // misrouted; returns only mean something at the coordinator
		}
		m.met.PartialReturns.Inc()
	} else {
		m.met.CDMsHandled.Inc()
		m.met.CDMHops.Observe(float64(sec.Hops))
	}
	step := m.detector.Deliver(m.summary, sec, time.Now().UnixNano())
	if step.Kind != core.StepDropped && step.Kind != core.StepIgnored {
		m.trackDetection(det)
	}
	if step.Reset {
		// A later derivation supersedes a parked one only while the view
		// both came from is alive (cdmBatcher.add).
		m.flushCDMBatch()
	}
	switch step.Kind {
	case core.StepDropped:
		m.met.CDMsRaceDropped.Inc()
	case core.StepRaceDropped:
		m.met.CDMsRaceDropped.Inc()
		m.detectionDone(det, "race-dropped")
	case core.StepDeduped:
		m.met.CDMsDeduped.Inc()
	}
	for i := range step.Evals {
		ev := &step.Evals[i]
		m.apply(det, ev)
		if !sec.Return {
			if ev.Kind == core.OutcomeDropped {
				m.met.CDMsDropped.Inc()
			}
			m.recordEval(det, ev.Along, ev.Outcome, ev.Entries)
		}
	}
	if sec.Return && step.Kind == core.StepEvaluated {
		// One return reports once, however many scions it relaunched through.
		out := step.Outcome()
		if out.Kind == core.OutcomeForwarded {
			m.met.DetectionRelaunches.Inc()
			m.emitT(trace.KindRelaunch, det, "det=%s/%d forwarded=%d entries=%d",
				det.Origin, det.Seq, out.Forwarded, step.Entries)
		}
		m.recordEval(det, ids.RefID{}, out, step.Entries)
	}
	if r := step.Return; r != nil {
		m.emitT(trace.KindPartialReturn, det, "det=%s/%d to=%s entries=%d hops=%d",
			det.Origin, det.Seq, det.Origin, r.Alg.Len(), r.Hops)
		m.batch.addReturn(det, r.Alg, r.Hops)
	}
}

// apply carries out what one evaluation asks of the node — park the
// fan-out, delete the scions of a proven cycle — and counts it.
func (m *Machine) apply(det core.DetectionID, ev *core.Eval) {
	m.batch.add(det, ev.Send)
	for _, ref := range ev.Delete {
		m.table.DeleteScion(ref.Src, ref.Dst.Obj)
		m.met.ScionsFreed.Inc()
		m.emit(trace.KindScionDeleted, "ref=%s reason=cycle", ref)
	}
	m.met.CDMsSent.Add(uint64(ev.Forwarded))
	switch ev.Kind {
	case core.OutcomeAborted:
		m.met.DetectionsAborted.Inc()
	case core.OutcomeCycleFound:
		m.met.CyclesFound.Inc()
	}
}

// recordEval journals one evaluation of a delivered section (a zero along
// is a return's) and closes the detection's latency measurement here on a
// verdict.
func (m *Machine) recordEval(det core.DetectionID, along ids.RefID, out core.Outcome, entries int) {
	if m.cfg.Trace != nil {
		var a any = along
		if along == (ids.RefID{}) {
			a = "return"
		}
		m.emitT(trace.KindCDMHandled, det, "det=%s/%d along=%s outcome=%s entries=%d",
			det.Origin, det.Seq, a, out.Kind, entries)
		if out.Kind == core.OutcomeCycleFound {
			m.emitT(trace.KindCycleFound, det, "det=%s/%d scions=%d",
				det.Origin, det.Seq, len(out.GarbageScions))
		}
	}
	if out.Kind == core.OutcomeCycleFound || out.Kind == core.OutcomeAborted {
		m.detectionDone(det, out.Kind.String())
	}
}

// handleNewSetStubs applies a reference-listing stub set: scions from the
// sender, from, that it does not list are deleted. On a machine that
// schedules its own LGC the objects they protected are collected in this
// same input: a stub set is the product of the peer's finished collection,
// so nothing more is coming and waiting for the next LGC tick only adds a
// period per hop. The bound is in logical time — one such collection
// between two ticks; a further scion-deleting set in the interval makes the
// next tick a collection tick instead. Scions deleted for any other reason
// (cycle found, leases) wait for the schedule: a found cycle's deletions
// arrive spread over a tick, and sweeping early splits the burst (DESIGN.md
// §8).
func (m *Machine) handleNewSetStubs(from ids.NodeID, msg *wire.NewSetStubs) {
	deleted := m.table.ApplyStubSet(from, msg.Seq, msg.Objs)
	m.met.StubSetsApplied.Inc()
	if len(deleted) == 0 {
		return
	}
	m.met.ScionsDropped.Add(uint64(len(deleted)))
	for _, sc := range deleted {
		m.emit(trace.KindScionDeleted, "ref=%s reason=stub-set", sc.RefID(m.id))
	}
	switch {
	case m.cfg.LGCEvery == 0:
		// Explicit rounds only (internal/cluster, dgc-sim): the harness collects.
	case m.sweptOffSchedule:
		m.sweepDue = true
	default:
		m.sweptOffSchedule = true
		m.collect(true)
	}
}
