package refs

import (
	"cmp"
	"slices"

	"dgc/internal/ids"
)

// HolderLeases guards scions per HOLDER rather than per scion: every
// inbound message from a member renews that member's single lease over all
// scions it holds here. The node only reclaims when the cluster membership
// directory has ALSO declared the holder dead, so quiet-but-alive members
// never lose references; without that gate silence alone deletes scions,
// which is what the lease ablation (experiments.LeaseAblation) shows.
// Scions taken into custody during a drain handoff (Pin) are exempt from
// expiry and released only when the drained holder's departure is final.
type HolderLeases struct {
	table *Table
	// Duration is the lease length in ticks.
	Duration uint64

	renewed     map[ids.NodeID]uint64 // last tick each holder was heard from
	incarnation map[ids.NodeID]uint64 // incarnation the current grant belongs to
	custodial   map[ScionKey]struct{} // drain-handoff scions pinned against expiry
}

// NewHolderLeases wraps a table with per-holder lease accounting.
func NewHolderLeases(table *Table, duration uint64) *HolderLeases {
	return &HolderLeases{
		table:       table,
		Duration:    duration,
		renewed:     make(map[ids.NodeID]uint64),
		incarnation: make(map[ids.NodeID]uint64),
		custodial:   make(map[ScionKey]struct{}),
	}
}

// Renew marks the holder alive at tick now: any inbound traffic qualifies.
func (h *HolderLeases) Renew(holder ids.NodeID, now uint64) {
	h.renewed[holder] = now
}

// Valid reports whether the holder's lease covers tick now. A holder never
// heard from is granted defensively at now — reclamation requires positive
// evidence of silence spanning a full lease, not missing bookkeeping.
func (h *HolderLeases) Valid(holder ids.NodeID, now uint64) bool {
	last, ok := h.renewed[holder]
	if !ok {
		h.renewed[holder] = now
		return true
	}
	return now-last <= h.Duration
}

// Regrant re-arms a previously expired holder that returned with a higher
// incarnation, reporting whether the grant was fresh. Re-joining with a
// stale or equal incarnation does not resurrect the lease: the member must
// prove it restarted.
func (h *HolderLeases) Regrant(holder ids.NodeID, incarnation, now uint64) bool {
	if incarnation <= h.incarnation[holder] {
		return false
	}
	h.incarnation[holder] = incarnation
	h.renewed[holder] = now
	return true
}

// Pin takes the scion (src, obj) into custody: a drain handoff transferred
// responsibility for it to this owner, so lease expiry must not touch it.
func (h *HolderLeases) Pin(src ids.NodeID, obj ids.ObjID) {
	h.custodial[ScionKey{Src: src, Obj: obj}] = struct{}{}
}

// ReleaseCustodial deletes every custodial scion held on behalf of holder —
// called when the drained holder's departure becomes final — and returns
// them in canonical order for journaling and sweep.
func (h *HolderLeases) ReleaseCustodial(holder ids.NodeID) []Scion {
	var out []Scion
	for key := range h.custodial {
		if key.Src != holder {
			continue
		}
		delete(h.custodial, key)
		if sc := h.table.Scion(key.Src, key.Obj); sc != nil {
			out = append(out, *sc)
			h.table.DeleteScion(key.Src, key.Obj)
		}
	}
	slices.SortFunc(out, func(x, y Scion) int { return cmp.Compare(x.Obj, y.Obj) })
	return out
}

// ExpireHolder deletes every non-custodial scion held for holder if — and
// only if — its lease has lapsed at tick now, returning the deletions in
// canonical order. Callers gate this on the membership directory declaring
// the holder dead; the lease is the second, independent safety condition.
func (h *HolderLeases) ExpireHolder(holder ids.NodeID, now uint64) []Scion {
	if h.Valid(holder, now) {
		return nil
	}
	var out []Scion
	for _, sc := range h.table.Scions() {
		if sc.Src != holder {
			continue
		}
		if _, pinned := h.custodial[ScionKey{Src: sc.Src, Obj: sc.Obj}]; pinned {
			continue
		}
		out = append(out, *sc)
		h.table.DeleteScion(sc.Src, sc.Obj)
	}
	delete(h.renewed, holder)
	return out
}
