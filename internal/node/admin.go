package node

import (
	"fmt"

	"dgc/internal/core"
	"dgc/internal/ids"
)

// Operator-plane entry points: the typed payloads and forced-action inputs
// behind internal/admin's versioned JSON API. Like DebugSnapshot, nothing in
// the protocol reads them — they are the control surface dgcctl drives.

// TableDump is a point-in-time listing of one node's reference tables, the
// /api/v1/tables payload: every scion (owner side of an incoming reference)
// and every stub (holder side of an outgoing reference), in canonical order.
type TableDump struct {
	Node   string       `json:"node"`
	Scions []ScionEntry `json:"scions"`
	Stubs  []StubEntry  `json:"stubs"`
}

// ScionEntry is one incoming-reference record in a TableDump. Ref is the
// RefID rendering ("SRC->OBJ@OWNER") accepted back by force-detect.
type ScionEntry struct {
	Src ids.NodeID `json:"src"`
	Obj ids.ObjID  `json:"obj"`
	IC  uint64     `json:"ic"`
	Ref string     `json:"ref"`
}

// StubEntry is one outgoing-reference record in a TableDump.
type StubEntry struct {
	Node ids.NodeID `json:"node"`
	Obj  ids.ObjID  `json:"obj"`
	IC   uint64     `json:"ic"`
	Ref  string     `json:"ref"`
}

// TableDump captures the machine's current reference tables.
func (m *Machine) TableDump() TableDump {
	d := TableDump{
		Node:   string(m.id),
		Scions: make([]ScionEntry, 0, m.table.NumScions()),
		Stubs:  make([]StubEntry, 0, m.table.NumStubs()),
	}
	for _, sc := range m.table.Scions() {
		d.Scions = append(d.Scions, ScionEntry{
			Src: sc.Src, Obj: sc.Obj, IC: sc.IC,
			Ref: sc.RefID(m.id).String(),
		})
	}
	for _, st := range m.table.Stubs() {
		d.Stubs = append(d.Stubs, StubEntry{
			Node: st.Target.Node, Obj: st.Target.Obj, IC: st.IC,
			Ref: ids.RefID{Src: m.id, Dst: st.Target}.String(),
		})
	}
	return d
}

// ForceDetectResult reports one operator-forced detection attempt.
type ForceDetectResult struct {
	Origin  string `json:"origin"`
	Seq     uint64 `json:"seq"`
	TraceID string `json:"trace_id"` // %016x of the causal trace id
	// Outcome is the detector's verdict on the first derivation: "forwarded",
	// "cycle-found", "branch-ended", "dropped" or "aborted".
	Outcome string `json:"outcome"`
	// Forwarded counts CDM derivations sent on the first hop.
	Forwarded int `json:"forwarded"`
	// GarbageScions lists the proven cycle's scions when Outcome is
	// "cycle-found".
	GarbageScions []string `json:"garbage_scions,omitempty"`
}

// ForceDetect starts a cycle detection at the given scion immediately,
// bypassing the candidate selector's quiescence aging (the operator asked).
// The summary is refreshed first so the detection sees current state. The
// candidate must name a scion owned by this node; detections that cannot
// make a first hop report their outcome without sending anything.
func (m *Machine) ForceDetect(candidate ids.RefID) (ForceDetectResult, error) {
	if candidate.Dst.Node != m.id {
		return ForceDetectResult{}, m.errf("ForceDetect: %s is not owned here", candidate)
	}
	if err := m.Summarize(); err != nil {
		return ForceDetectResult{}, err
	}
	det, out := m.launch(candidate, true)
	m.syncGauges()
	res := ForceDetectResult{
		Origin:    string(det.Origin),
		Seq:       det.Seq,
		TraceID:   fmt.Sprintf("%016x", core.TraceIDFor(det)),
		Outcome:   out.Kind.String(),
		Forwarded: out.Forwarded,
	}
	for _, ref := range out.GarbageScions {
		res.GarbageScions = append(res.GarbageScions, ref.String())
	}
	return res, nil
}
