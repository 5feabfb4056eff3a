package refs

import (
	"sort"

	"dgc/internal/ids"
)

// LeaseDGC is leased reference listing: the alternative acyclic collector
// the paper's evaluation alludes to when it calls its own "a safe DGC (not
// a lease-based one)". Included as an ablation.
//
// Every scion carries a lease that each received stub set renews; a scion
// whose lease has not been renewed for Duration ticks is expired and
// deleted even though no stub set ever dropped it. Expiry makes the
// collector self-cleaning when client processes die silently — and UNSAFE
// when they merely go quiet: a partition or a burst of lost messages longer
// than the lease deletes scions for references that are still held, letting
// the owner reclaim live objects. The ablation experiment quantifies
// exactly that failure against the paper's loss-tolerant design.
type LeaseDGC struct {
	*AcyclicDGC
	// Duration is the lease length in ticks.
	Duration uint64

	renewed map[ScionKey]uint64 // last renewal tick per scion
}

// NewLeaseDGC wraps a table with leased reference listing.
func NewLeaseDGC(table *Table, duration uint64) *LeaseDGC {
	return &LeaseDGC{
		AcyclicDGC: NewAcyclicDGC(table),
		Duration:   duration,
		renewed:    make(map[ScionKey]uint64),
	}
}

// Grant starts (or restarts) the lease of a scion at tick now. Call on
// scion creation.
func (l *LeaseDGC) Grant(src ids.NodeID, obj ids.ObjID, now uint64) {
	l.renewed[ScionKey{Src: src, Obj: obj}] = now
}

// ApplyStubSetAt applies a stub set like reference listing AND renews the
// leases of every listed scion at tick now. Stale messages renew nothing.
func (l *LeaseDGC) ApplyStubSetAt(msg StubSetMsg, now uint64) []Scion {
	if msg.Seq <= l.LastAppliedSeq(msg.From) {
		return nil
	}
	deleted := l.ApplyStubSet(msg)
	for _, sc := range deleted {
		delete(l.renewed, ScionKey{Src: sc.Src, Obj: sc.Obj})
	}
	for _, obj := range msg.Objs {
		key := ScionKey{Src: msg.From, Obj: obj}
		if l.table.Scion(msg.From, obj) != nil {
			l.renewed[key] = now
		}
	}
	return deleted
}

// HolderLeases guards scions per HOLDER rather than per scion: every
// inbound message from a member renews that member's single lease over all
// scions it holds here. Unlike the LeaseDGC ablation above — where silence
// alone deletes scions — HolderLeases only reclaims when the cluster
// membership directory has ALSO declared the holder dead, so quiet-but-alive
// members never lose references. Scions taken into custody during a drain
// handoff (Pin) are exempt from expiry and released only when the drained
// holder's departure is final.
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
	sortScions(out)
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

func sortScions(out []Scion) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Obj < out[j].Obj
	})
}

// Expire deletes every scion whose lease ran out at tick now and returns
// them in canonical order. The caller treats them exactly like stub-set
// deletions — this is where the unsafety enters.
func (l *LeaseDGC) Expire(now uint64) []Scion {
	var out []Scion
	for _, sc := range l.table.Scions() {
		key := ScionKey{Src: sc.Src, Obj: sc.Obj}
		last, ok := l.renewed[key]
		if !ok {
			// Never granted: treat as granted now (defensive).
			l.renewed[key] = now
			continue
		}
		if now-last > l.Duration {
			l.table.DeleteScion(sc.Src, sc.Obj)
			delete(l.renewed, key)
			out = append(out, *sc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Obj < out[j].Obj
	})
	return out
}
