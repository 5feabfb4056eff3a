package node

import "time"

// DebugSnapshot is a point-in-time, JSON-friendly view of one node's
// collector state, served by the admin API's /debug/dgc endpoint.
// It is diagnostic output only: nothing in the protocol reads it.
type DebugSnapshot struct {
	Node            string `json:"node"`
	Clock           uint64 `json:"clock"`
	Objects         int    `json:"objects"`
	Scions          int    `json:"scions"`
	Stubs           int    `json:"stubs"`
	SummaryVersion  uint64 `json:"summary_version"`
	PendingCalls    int    `json:"pending_calls"`
	PendingExports  int    `json:"pending_exports"`
	CDMAccumulators int    `json:"cdm_accumulators"`

	// LastLGC/LastSummarize are RFC3339Nano wall-clock stamps of the most
	// recent daemon runs; empty before the first run.
	LastLGC       string `json:"last_lgc,omitempty"`
	LastSummarize string `json:"last_summarize,omitempty"`

	// Accumulators lists the per-detection CDM accumulators with their ages,
	// in (origin, seq) order: the "which detection is stuck" view.
	Accumulators []AccumulatorInfo `json:"accumulators"`

	// TraceEventsDropped is the trace ring's eviction count (0 when no
	// trace.Log is configured).
	TraceEventsDropped uint64 `json:"trace_events_dropped,omitempty"`

	// Mailbox reports a started node's event queue; nil for a stepped one.
	Mailbox *MailboxStats `json:"mailbox,omitempty"`
}

// AccumulatorInfo is one per-detection CDM accumulator in a DebugSnapshot.
type AccumulatorInfo struct {
	Origin  string `json:"origin"`
	Seq     uint64 `json:"seq"`
	Entries int    `json:"entries"` // references in the accumulated algebra
	Alongs  int    `json:"alongs"`  // distinct scions the detection arrived along
	AgeMS   int64  `json:"age_ms"`  // since the accumulator was created
}

// MailboxStats reports a started node's bounded event queue.
type MailboxStats struct {
	Depth    int    `json:"depth"`
	Capacity int    `json:"capacity"`
	Dropped  uint64 `json:"dropped"`
}

// DebugSnapshot captures the machine's current diagnostic view.
func (m *Machine) DebugSnapshot() DebugSnapshot {
	now := time.Now()
	snap := DebugSnapshot{
		Node:           string(m.id),
		Clock:          m.clock,
		Objects:        m.heap.Len(),
		Scions:         m.table.NumScions(),
		Stubs:          m.table.NumStubs(),
		PendingCalls:   len(m.pendingCalls),
		PendingExports: len(m.pendingExports),
	}
	if m.summary != nil {
		snap.SummaryVersion = m.summary.Version
	}
	if !m.lastLGC.IsZero() {
		snap.LastLGC = m.lastLGC.Format(time.RFC3339Nano)
	}
	if !m.lastSummarize.IsZero() {
		snap.LastSummarize = m.lastSummarize.Format(time.RFC3339Nano)
	}
	views := m.detector.Accumulators()
	snap.CDMAccumulators = len(views)
	snap.Accumulators = make([]AccumulatorInfo, 0, len(views))
	for _, v := range views {
		snap.Accumulators = append(snap.Accumulators, AccumulatorInfo{
			Origin:  string(v.Det.Origin),
			Seq:     v.Det.Seq,
			Entries: v.Entries,
			Alongs:  v.Alongs,
			AgeMS:   now.Sub(time.Unix(0, v.Born)).Milliseconds(),
		})
	}
	if m.cfg.Trace != nil {
		snap.TraceEventsDropped = m.cfg.Trace.Dropped()
	}
	return snap
}
