package node

import (
	"time"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/trace"
	"dgc/internal/wire"
)

// HandleMessage feeds one delivered protocol message into the machine.
// Unknown messages are ignored (datagram semantics). Any sends the message
// triggers (CDM fan-out, acks, replies) accumulate as effects for the
// driver to transmit.
func (m *Machine) HandleMessage(from ids.NodeID, msg wire.Message) {
	m.observeMember(from)
	switch msg := msg.(type) {
	case *wire.InvokeRequest:
		m.handleInvokeRequest(msg)
	case *wire.InvokeReply:
		m.handleInvokeReply(msg)
	case *wire.CreateScion:
		m.handleCreateScion(msg)
	case *wire.CreateScionAck:
		m.handleCreateScionAck(msg)
	case *wire.NewSetStubs:
		m.handleNewSetStubs(msg)
	case *wire.CDM:
		m.handleCDM(msg)
	case *wire.BatchCDM:
		m.handleBatchCDM(msg)
	case *wire.DeleteScion:
		m.detector.HandleDeleteScion(msg.Ref)
	case *wire.Gossip:
		m.handleGossip(from, msg)
	case *wire.LeaseHandoff:
		m.handleLeaseHandoff(msg)
	default:
		// Baseline traffic and future kinds are not for this handler.
	}
}

// handleCDM merges an arriving cycle detection message into the machine's
// per-detection accumulated algebra and processes the union.
//
// Accumulation is the key to polynomial traffic on dense graphs: CDMs of
// one detection reach a node over many converging paths, each carrying a
// different partial closure; merging them makes every processed delivery
// STRICTLY GROW the node's view, bounding processed deliveries per
// detection by the number of references in the closure. A delivery that
// adds nothing is dropped; a delivery whose counters conflict with the
// accumulated view is a mutator race and terminates the detection here.
// The accumulator is droppable cache (cleared on summarization and when
// full): losing it repeats work but never affects safety, preserving the
// paper's "no correctness-critical per-detection state at intermediate
// processes" property.
func (m *Machine) handleCDM(msg *wire.CDM) {
	m.beginCDMBatch()
	m.processCDMSection(msg.Det, msg.Trace, msg.Along, int(msg.Hops), msg.MergeAlgInto)
	m.flushCDMBatch()
}

// handleBatchCDM processes a multi-candidate detection message: every
// section is matched against the local summary exactly as a standalone CDM
// would be — per-detection accumulators, dedup, race-drop and trace ids all
// apply section by section — and the surviving forwards are re-grouped per
// outgoing edge into sub-batches by the bracketing cdmBatcher. Return
// messages instead merge each section into the origin's accumulated view
// and re-launch only the unresolved residue.
func (m *Machine) handleBatchCDM(msg *wire.BatchCDM) {
	if len(msg.Sections) == 0 {
		return // decoder rejects these; in-process senders never build them
	}
	if m.cfg.Trace != nil {
		if msg.Return {
			m.emit(trace.KindBatchCDM, "sections=%d hops=%d return received", len(msg.Sections), msg.Hops)
		} else {
			m.emit(trace.KindBatchCDM, "from=%s sections=%d hops=%d received",
				msg.Along.Src, len(msg.Sections), msg.Hops)
		}
	}
	m.beginCDMBatch()
	for i := range msg.Sections {
		s := &msg.Sections[i]
		if msg.Return {
			m.handleReturnSection(s, int(msg.Hops))
		} else {
			m.processCDMSection(s.Det, s.Trace, msg.Along, int(msg.Hops), s.MergeAlgInto)
		}
	}
	m.flushCDMBatch()
}

// accumulatorFor returns (creating if needed) the detection's accumulated
// state, flushing the cache when the cap is hit.
func (m *Machine) accumulatorFor(det core.DetectionID) *detAcc {
	acc, ok := m.cdmAcc[det]
	if !ok {
		if len(m.cdmAcc) >= cdmAccCap {
			m.cdmAcc = make(map[core.DetectionID]*detAcc)
			m.cdmAborted = make(map[core.DetectionID]struct{})
		}
		acc = &detAcc{alg: core.NewAlg(), alongs: make(map[ids.RefID]struct{}), first: time.Now()}
		m.cdmAcc[det] = acc
	}
	return acc
}

// raceDropDetection records a counter conflict against the accumulated
// view: the accumulator is discarded, further deliveries of the detection
// are dropped, and the latency measurement closes.
func (m *Machine) raceDropDetection(det core.DetectionID) {
	m.met.CDMsRaceDropped.Inc()
	delete(m.cdmAcc, det)
	m.cdmAborted[det] = struct{}{}
	m.detectionDone(det, "race-dropped")
}

// processCDMSection is the per-detection core of handleCDM/handleBatchCDM:
// one delivered algebra (a standalone CDM or one batch section), arriving
// along one scion, merged and processed against the accumulated view.
func (m *Machine) processCDMSection(det core.DetectionID, traceID uint64, along ids.RefID, hops int, merge func(core.Alg) (bool, bool)) {
	m.met.CDMsHandled.Inc()
	m.met.CDMHops.Observe(float64(hops))
	if _, aborted := m.cdmAborted[det]; aborted {
		m.met.CDMsRaceDropped.Inc()
		return
	}
	m.trackDetection(det, traceID)
	acc := m.accumulatorFor(det)
	changed, conflict := merge(acc.alg)
	if conflict {
		m.raceDropDetection(det)
		return
	}
	if changed {
		acc.ver++
	}
	_, knownAlong := acc.alongs[along]
	if !knownAlong {
		acc.alongs[along] = struct{}{}
		acc.alongsSorted = append(acc.alongsSorted, along)
		ids.SortRefIDs(acc.alongsSorted)
	}
	if !changed && knownAlong {
		m.met.CDMsDeduped.Inc()
		return
	}

	// Process the union through EVERY scion this detection has arrived
	// along: information that arrived via one scion must also flow out
	// through the stubs reachable from the others, or converging paths
	// would starve each other of the closure they jointly build.
	terminal, forwarded, cut := false, false, false
	for _, a := range acc.alongsSorted {
		out := m.detector.HandleCDM(m.summary, det, a, acc.alg, hops, traceID)
		m.met.CDMsSent.Add(uint64(out.Forwarded))
		switch out.Kind {
		case core.OutcomeDropped:
			m.met.CDMsDropped.Inc()
		case core.OutcomeAborted:
			m.met.DetectionsAborted.Inc()
		case core.OutcomeCycleFound:
			m.met.CyclesFound.Inc()
		case core.OutcomeForwarded:
			forwarded = true
		case core.OutcomeBranchEnded:
			cut = cut || out.NoNewInfo
		}
		if m.cfg.Trace != nil {
			m.emitT(trace.KindCDMHandled, traceID, "det=%s/%d along=%s outcome=%s entries=%d",
				det.Origin, det.Seq, a, out.Kind, acc.alg.Len())
			if out.Kind == core.OutcomeCycleFound {
				m.emitT(trace.KindCycleFound, traceID, "det=%s/%d scions=%d",
					det.Origin, det.Seq, len(out.GarbageScions))
			}
		}
		if out.Kind == core.OutcomeForwarded && out.Derived != nil {
			// Fold the shipped derivation back into the union: later
			// expansions then recognize it and stop re-forwarding
			// information every downstream node already has.
			ch, conflict := acc.alg.Merge(*out.Derived)
			if conflict {
				m.raceDropDetection(det)
				return
			}
			if ch {
				acc.ver++
			}
		}
		if out.Kind == core.OutcomeCycleFound || out.Kind == core.OutcomeAborted {
			// Terminal outcome observed at this node: close the latency
			// measurement for the detection's causal trace.
			m.detectionDone(det, out.Kind.String())
			terminal = true
			break
		}
	}

	// Partial return: a branch cut here for carrying no new information,
	// with no along reaching a verdict or forwarding, may hold a fragment of
	// a closure split across branches that never meet. Return the
	// accumulated view to the origin (once per accumulator version) so it
	// can merge the fragments of every branch and re-launch only what
	// remains unresolved. A section that was only dropped (safety rule 1) or
	// cut at locally reachable stubs carries nothing the origin can use and
	// returns nothing.
	if cut && !terminal && !forwarded &&
		det.Origin != m.id && acc.ver > acc.retVer && acc.alg.Len() > 0 {
		acc.retVer = acc.ver
		m.emitT(trace.KindPartialReturn, traceID, "det=%s/%d to=%s entries=%d hops=%d",
			det.Origin, det.Seq, det.Origin, acc.alg.Len(), hops+1)
		m.batch.addReturn(det, traceID, acc.alg.Clone(), hops+1)
	}
}

// handleReturnSection merges one partial return into the origin's
// accumulated view and evaluates it: a conflict aborts the detection, a
// source-empty reduction proves the cycle, anything else re-launches the
// unresolved residue through the origin's own scions.
func (m *Machine) handleReturnSection(s *wire.BatchSection, hops int) {
	det := s.Det
	if det.Origin != m.id {
		return // misrouted; returns only mean something at the coordinator
	}
	m.met.PartialReturns.Inc()
	if _, aborted := m.cdmAborted[det]; aborted {
		m.met.CDMsRaceDropped.Inc()
		return
	}
	if m.summary == nil {
		return
	}
	m.trackDetection(det, s.Trace)
	acc := m.accumulatorFor(det)
	changed, conflict := s.MergeAlgInto(acc.alg)
	if conflict {
		m.raceDropDetection(det)
		return
	}
	if !changed {
		m.met.CDMsDeduped.Inc()
		return
	}
	acc.ver++
	out := m.detector.HandleReturn(m.summary, det, acc.alg, hops, s.Trace)
	m.met.CDMsSent.Add(uint64(out.Forwarded))
	switch out.Kind {
	case core.OutcomeAborted:
		m.met.DetectionsAborted.Inc()
	case core.OutcomeCycleFound:
		m.met.CyclesFound.Inc()
	case core.OutcomeForwarded:
		m.met.DetectionRelaunches.Inc()
		m.emitT(trace.KindRelaunch, s.Trace, "det=%s/%d forwarded=%d entries=%d",
			det.Origin, det.Seq, out.Forwarded, acc.alg.Len())
	}
	if m.cfg.Trace != nil {
		m.emitT(trace.KindCDMHandled, s.Trace, "det=%s/%d along=return outcome=%s entries=%d",
			det.Origin, det.Seq, out.Kind, acc.alg.Len())
		if out.Kind == core.OutcomeCycleFound {
			m.emitT(trace.KindCycleFound, s.Trace, "det=%s/%d scions=%d",
				det.Origin, det.Seq, len(out.GarbageScions))
		}
	}
	if out.Kind == core.OutcomeForwarded && out.Derived != nil {
		ch, conflict := acc.alg.Merge(*out.Derived)
		if conflict {
			m.raceDropDetection(det)
			return
		}
		if ch {
			acc.ver++
		}
	}
	if out.Kind == core.OutcomeCycleFound || out.Kind == core.OutcomeAborted {
		m.detectionDone(det, out.Kind.String())
	}
}

// handleNewSetStubs applies a reference-listing stub set: scions from the
// sender not listed are deleted. On a machine that schedules its own LGC the
// objects they protected are collected in this same input: a stub set is the
// product of the peer's finished collection, so nothing more is coming and
// waiting for the next LGC tick only adds a period per hop. The bound is in
// logical time — one such collection between two ticks; a further
// scion-deleting set in the interval makes the next tick a collection tick
// instead. Scions deleted for any other reason (cycle found, DeleteScion,
// leases) wait for the schedule: a found cycle's deletions arrive spread over
// a tick, and sweeping early splits the burst (DESIGN.md §8).
func (m *Machine) handleNewSetStubs(msg *wire.NewSetStubs) {
	deleted := m.acyclic.ApplyStubSet(msg.Set)
	m.met.StubSetsApplied.Inc()
	if len(deleted) == 0 {
		return
	}
	m.met.ScionsDropped.Add(uint64(len(deleted)))
	for _, sc := range deleted {
		ref := sc.RefID(m.id)
		m.selector.Forget(ref)
		m.emit(trace.KindScionDeleted, "ref=%s reason=stub-set", ref)
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
