package core

import (
	"slices"

	"dgc/internal/ids"
)

// ScionSummary is the summarized-graph record for one scion.
type ScionSummary struct {
	Ref ids.RefID // the incoming reference (Src node -> local object)
	IC  uint64    // scion invocation counter at snapshot time
	// Active is the tick of the scion's last creation, re-grant or
	// invocation (0 once restored): candidacy's quiescence input.
	Active uint64
	// StubsFrom lists the targets of stubs transitively reachable from the
	// scion's object, in canonical order.
	StubsFrom []ids.GlobalRef
	// LocalReach is true when the scion's object is reachable from the
	// local root set; such scions are never cycle candidates.
	LocalReach bool
}

// StubSummary is the summarized-graph record for one stub.
type StubSummary struct {
	Target ids.GlobalRef // the outgoing reference target
	IC     uint64        // stub invocation counter at snapshot time
	// ScionsTo lists the scions (as RefIDs) from which this stub is
	// transitively reachable, in canonical order.
	ScionsTo []ids.RefID
	// LocalReach is the Local.Reach flag: true when at least one object
	// holding this outgoing reference is reachable from the local root set.
	LocalReach bool
}

// Summary is the summarized graph description of one process snapshot
// (§3 "Graph Summarization"): everything detection and candidacy read, as
// plain values. It is immutable once built: detectors read it without
// synchronizing with the mutator, which is the whole point of the paper's
// design.
type Summary struct {
	Node    ids.NodeID
	Version uint64 // monotonically increasing snapshot version per node

	Scions []ScionSummary // canonical RefID order
	Stubs  []StubSummary  // canonical target order
}

// Scion returns the summary record for the given incoming reference, and
// false if the reference was not present in the snapshot (the condition
// behind the paper's safety rule 1: "stub without corresponding scion ->
// ignore CDM").
func (s *Summary) Scion(ref ids.RefID) (ScionSummary, bool) {
	if s != nil {
		byRef := func(sc ScionSummary, r ids.RefID) int { return sc.Ref.Compare(r) }
		if i, ok := slices.BinarySearchFunc(s.Scions, ref, byRef); ok {
			return s.Scions[i], true
		}
	}
	return ScionSummary{}, false
}

// Stub returns the summary record for the given outgoing reference target,
// and false if there is none.
func (s *Summary) Stub(target ids.GlobalRef) (StubSummary, bool) {
	if s != nil {
		byTarget := func(st StubSummary, t ids.GlobalRef) int { return st.Target.Compare(t) }
		if i, ok := slices.BinarySearchFunc(s.Stubs, target, byTarget); ok {
			return s.Stubs[i], true
		}
	}
	return StubSummary{}, false
}
