package node

import (
	"fmt"
	"path/filepath"
	"slices"
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

// expireCalls fails every pending call and export whose deadline has
// passed. Exports fail in id order: their continuations send messages, and
// the schedule must not depend on map order.
func (m *Machine) expireCalls() {
	var exports []uint64
	for id, pe := range m.pendingExports {
		if pe.deadline != 0 && m.clock > pe.deadline {
			exports = append(exports, id)
		}
	}
	slices.Sort(exports)
	for _, id := range exports {
		pe := m.pendingExports[id]
		delete(m.pendingExports, id)
		pe.ready(false, "export timed out")
	}
	for id, pc := range m.pendingCalls {
		if pc.deadline != 0 && m.clock > pc.deadline {
			delete(m.pendingCalls, id)
			for _, r := range pc.pinned {
				m.unpin(r)
			}
			m.met.CallsFailed.Inc()
			if pc.cb != nil {
				pc.cb(Mutator{n: m}, Reply{OK: false, Err: "call timed out"})
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
	res := m.lgc.Collect(m.pinnedRefs()...)
	m.met.LGCRuns.Inc()
	m.met.ObjectsSwept.Add(uint64(res.Swept))

	// "This new set of stubs is then sent to remote processes" (§1).
	generate, trigger := m.table.GenerateTargeted, ""
	if offSchedule {
		generate, trigger = m.table.GenerateChanged, " trigger=stub-set"
	}
	m.emit(trace.KindLGC, "swept=%d live=%d stubs-deleted=%d%s", res.Swept, res.Live, res.StubsDeleted, trigger)
	for _, ts := range generate() {
		m.met.StubSetsSent.Inc()
		m.send(ts.To, &wire.NewSetStubs{Seq: ts.Seq, Objs: ts.Objs})
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
	start := time.Now()
	m.snapVersion++
	if m.cfg.Codec != nil {
		data, err := m.cfg.Codec.Encode(m.heap)
		if err != nil {
			return m.errf("snapshot encode: %v", err)
		}
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
	m.met.Summarizations.Inc()
	m.lastSummarize = start
	m.met.SummarizeDuration.Observe(time.Since(start).Seconds())
	m.emit(trace.KindSummarize, "version=%d scions=%d stubs=%d",
		m.snapVersion, len(m.summary.Scions), len(m.summary.Stubs))
	// A new summary changes CDM processing results: reset the detector's
	// views so stale drops cannot mask newly-useful deliveries, and so
	// re-delivered CDMs are reprocessed (the loss-retry mechanism). The parked
	// traffic leaves first (cdmBatcher.add).
	m.flushCDMBatch()
	m.detector.Reset()
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
	cands := core.Candidates(m.summary, m.clock, m.cfg.CandidateMinAge)
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
	for _, c := range cands {
		if _, out := m.launch(c, false); out.Kind == core.OutcomeForwarded {
			started++
		}
	}
	m.syncGauges()
	return started
}

// launch starts a detection at candidate and records its outcome, the one
// place a launch is counted: a detection is started once it makes a first
// hop. forced marks an operator-forced launch in the journal.
func (m *Machine) launch(candidate ids.RefID, forced bool) (core.DetectionID, core.Outcome) {
	det, ev := m.detector.StartDetection(m.summary, candidate)
	m.apply(det, &ev)
	startFmt, foundFmt := "det=%s/%d candidate=%s", "det=%s/%d scions=%d"
	if forced {
		startFmt, foundFmt = startFmt+" forced", foundFmt+" forced"
	}
	switch ev.Kind {
	case core.OutcomeForwarded:
		m.met.DetectionsStarted.Inc()
		m.trackDetection(det)
		m.emitT(trace.KindDetectionStart, det, startFmt, det.Origin, det.Seq, candidate)
	case core.OutcomeCycleFound:
		// The first derivation already closed.
		m.emitT(trace.KindCycleFound, det, foundFmt, det.Origin, det.Seq, len(ev.GarbageScions))
		m.emitT(trace.KindDetectionEnd, det, "det=%s/%d outcome=%s", det.Origin, det.Seq, ev.Kind)
	}
	return det, ev.Outcome
}

// Summary returns the machine's current summarized snapshot (nil before
// the first summarization). The summary is immutable.
func (m *Machine) Summary() *core.Summary { return m.summary }
