package node

import (
	"fmt"
	"path/filepath"
	"time"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/lgc"
	"dgc/internal/snapshot"
	"dgc/internal/trace"
	"dgc/internal/wire"
)

// Collector daemons: machine inputs run by Tick on the schedule Config gives
// (whoever says Tick: the simulator when stepped, the loop's ticker when
// started) or explicitly by tests and harnesses.

// Tick advances the logical clock by one, expires timed-out calls and runs
// the periodic daemons configured in Config. The order within a tick is
// LGC, then snapshot/summarize, then detection — matching the data flow
// (detection consumes summaries, summaries consume post-LGC tables).
func (m *Machine) Tick() {
	m.clock++
	m.expireCalls()
	m.membTick()
	// Periodically age out tracked detections that never reached a terminal
	// outcome here (e.g. the origin of a detection that ended elsewhere).
	if m.clock%64 == 0 && len(m.inflight) > 0 {
		cutoff := time.Now().Add(-inflightMaxAge)
		for det, inf := range m.inflight {
			if inf.first.Before(cutoff) {
				delete(m.inflight, det)
			}
		}
		m.met.DetectionsInflight.Set(int64(len(m.inflight)))
	}
	// A collection tick is one the schedule names or one an overflowing stub
	// set asked for (handleNewSetStubs); either way it opens a new interval
	// for the one off-schedule collection.
	due := m.sweepDue
	m.sweepDue, m.sweptOffSchedule = false, false
	switch {
	case m.cfg.LGCEvery > 0 && m.clock%m.cfg.LGCEvery == 0:
		m.RunLGC()
	case due: // only ever set with LGCEvery > 0
		m.collect(true)
	}
	if m.cfg.SnapshotEvery > 0 && m.clock%m.cfg.SnapshotEvery == 0 {
		_ = m.Summarize()
	}
	if m.cfg.DetectEvery > 0 && m.clock%m.cfg.DetectEvery == 0 {
		m.RunDetection()
	}
}

func (m *Machine) expireCalls() {
	for id, pc := range m.pendingCalls {
		if pc.deadline != 0 && m.clock > pc.deadline {
			delete(m.pendingCalls, id)
			for _, r := range pc.pinned {
				m.unpin(r)
			}
			m.stats.CallsFailed++
			m.met.CallsFailed.Inc()
			if pc.cb != nil {
				m.callback(func() { pc.cb(Mutator{n: m}, Reply{OK: false, Err: "call timed out"}) })
			}
		}
	}
}

// RunLGC performs one local collection and restates every peer's stub set.
func (m *Machine) RunLGC() lgc.Result { return m.collect(false) }

// collect performs one local collection and emits NewSetStubs messages: to
// every known peer when scheduled or explicit, only to peers whose set
// changed when offSchedule (a stub set deleted scions; see
// handleNewSetStubs).
func (m *Machine) collect(offSchedule bool) lgc.Result {
	start := time.Now()
	// Remember every current peer before the collection can delete their
	// last stub, so they still receive the (empty) stub set that lets them
	// reclaim scions.
	m.acyclic.NotePeers()
	res := m.lgc.Collect(m.pinnedRefs()...)
	m.stats.LGCRuns++
	m.stats.ObjectsSwept += uint64(res.Swept)
	m.met.LGCRuns.Inc()
	m.met.ObjectsSwept.Add(uint64(res.Swept))

	// "This new set of stubs is then sent to remote processes" (§1).
	generate, trigger := m.acyclic.GenerateTargeted, ""
	if offSchedule {
		generate, trigger = m.acyclic.GenerateChanged, " trigger=stub-set"
	}
	m.emit(trace.KindLGC, "swept=%d live=%d stubs-deleted=%d%s", res.Swept, res.Live, res.StubsDeleted, trigger)
	for _, ts := range generate() {
		m.stats.StubSetsSent++
		m.met.StubSetsSent.Inc()
		m.send(ts.To, &wire.NewSetStubs{Set: ts.Msg})
	}
	m.lastLGC = start
	m.met.LGCDuration.Observe(time.Since(start).Seconds())
	m.syncGauges()
	return res
}

// Summarize takes a snapshot of the object graph and rebuilds the
// summarized graph description (§3 "Graph Summarization"). When a codec is
// configured the snapshot is serialized first — the operation whose cost §4
// measures — and optionally written to SnapshotDir.
func (m *Machine) Summarize() error {
	// Mutation-epoch cache: when neither the heap nor the reference tables
	// changed since the last rebuild, the existing summary is still exact,
	// so serialization and summarization are both skipped. The CDM
	// accumulators are still reset — reprocessing re-delivered CDMs against
	// the same summary is the loss-retry mechanism, and must not be
	// suppressed by dedup state surviving a (cheap) summarization round.
	if m.summary != nil && m.heap.Gen() == m.sumHeapGen && m.table.Gen() == m.sumTableGen {
		m.stats.Summarizations++
		m.stats.SummaryCacheHits++
		m.met.Summarizations.Inc()
		m.met.SummaryCacheHits.Inc()
		m.lastSummarize = time.Now()
		m.emit(trace.KindSummarize, "version=%d scions=%d stubs=%d cached",
			m.summary.Version, len(m.summary.Scions), len(m.summary.Stubs))
		m.cdmAcc = make(map[core.DetectionID]*detAcc)
		m.cdmAborted = make(map[core.DetectionID]struct{})
		return nil
	}
	start := time.Now()
	m.snapVersion++
	if m.cfg.Codec != nil {
		data, err := m.cfg.Codec.Encode(m.heap)
		if err != nil {
			return m.errf("snapshot encode: %v", err)
		}
		m.stats.SnapshotBytes += uint64(len(data))
		if m.cfg.SnapshotDir != "" {
			path := filepath.Join(m.cfg.SnapshotDir,
				fmt.Sprintf("%s-%06d.%s.snap", m.id, m.snapVersion, m.cfg.Codec.Name()))
			// Temp file + rename but unsynced, so a crash can leave the name
			// on a short file. Right only while nothing restores from snapshot
			// files (they are §4's measured cost, not state); anything that
			// starts to — ROADMAP item 2 — must sync before the rename.
			if err := snapshot.WriteFile(path, data); err != nil {
				return err
			}
		}
	}
	m.summary = snapshot.Summarize(m.heap, m.table, m.snapVersion)
	m.stats.Summarizations++
	m.met.Summarizations.Inc()
	m.lastSummarize = start
	m.met.SummarizeDuration.Observe(time.Since(start).Seconds())
	m.emit(trace.KindSummarize, "version=%d scions=%d stubs=%d",
		m.snapVersion, len(m.summary.Scions), len(m.summary.Stubs))
	// A new summary changes CDM processing results: reset the accumulators
	// so stale drops cannot mask newly-useful deliveries.
	m.cdmAcc = make(map[core.DetectionID]*detAcc)
	m.cdmAborted = make(map[core.DetectionID]struct{})
	m.sumHeapGen = m.heap.Gen()
	m.sumTableGen = m.table.Gen()
	m.syncGauges()
	return nil
}

// RunDetection nominates cycle candidates from the current summary and
// starts detections. It returns the number started.
func (m *Machine) RunDetection() int {
	if m.summary == nil {
		return 0
	}
	if m.memb != nil && m.memb.Draining() {
		// A departing node starts no new detections; its handoffs and the
		// survivors' relaunches cover its candidates.
		return 0
	}
	cands := m.selector.Candidates(m.summary, m.clock)
	if m.memb != nil {
		// Scions held by dead members are waiting on lease reclamation, not
		// cycle detection; launching from them would only abort.
		live := cands[:0]
		for _, c := range cands {
			if !m.memb.IsDead(c.Src) {
				live = append(live, c)
			}
		}
		cands = live
	}
	started := 0
	m.beginCDMBatch()
	for _, c := range cands {
		det, out := m.detector.StartDetection(m.summary, c)
		tid := core.TraceIDFor(det)
		switch out.Kind {
		case core.OutcomeForwarded:
			started++
			m.met.DetectionsStarted.Inc()
			m.met.CDMsSent.Add(uint64(out.Forwarded))
			m.trackDetection(det, tid)
			m.emitT(trace.KindDetectionStart, tid, "det=%s/%d candidate=%s", det.Origin, det.Seq, c)
		case core.OutcomeCycleFound:
			// The first derivation already closed.
			m.met.CyclesFound.Inc()
			m.emitT(trace.KindCycleFound, tid, "det=%s/%d scions=%d",
				det.Origin, det.Seq, len(out.GarbageScions))
			m.emitT(trace.KindDetectionEnd, tid, "det=%s/%d outcome=%s", det.Origin, det.Seq, out.Kind)
		}
	}
	m.flushCDMBatch()
	m.syncGauges()
	return started
}

// Summary returns the machine's current summarized snapshot (nil before
// the first summarization). The summary is immutable.
func (m *Machine) Summary() *snapshot.Summary { return m.summary }

// detectorActions adapts Machine to core.Actions. Methods are invoked by
// the detector, which only runs inside the machine.
type detectorActions Machine

// SendCDMs implements core.Actions: it parks the fan-out per edge, and
// flushCDMBatch groups every detection exiting via the same reference into
// one message (and strips edges through dead members there). The derivation
// is shared, unflattened, by every outgoing message of the fan-out:
// in-process receivers merge it directly and the codec flattens lazily if a
// message reaches a real socket.
func (a *detectorActions) SendCDMs(det core.DetectionID, traceID uint64, alongs []ids.RefID, alg core.Alg, hops int) {
	(*Machine)(a).batch.add(det, traceID, alongs, alg, hops)
}

// DeleteOwnScion implements core.Actions: the detector proved the scion
// belongs to a distributed garbage cycle.
func (a *detectorActions) DeleteOwnScion(ref ids.RefID) {
	m := (*Machine)(a)
	if ref.Dst.Node != m.id {
		return
	}
	m.table.DeleteScion(ref.Src, ref.Dst.Obj)
	m.selector.Forget(ref)
	m.met.ScionsFreed.Inc()
	m.emit(trace.KindScionDeleted, "ref=%s reason=cycle", ref)
}

// SendDeleteScion implements core.Actions (BroadcastDelete mode).
func (a *detectorActions) SendDeleteScion(det core.DetectionID, ref ids.RefID) {
	m := (*Machine)(a)
	m.send(ref.Dst.Node, &wire.DeleteScion{Det: det, Ref: ref})
}
