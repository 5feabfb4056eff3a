package refs

import "dgc/internal/ids"

// Holder leases guard scions per HOLDER rather than per scion: every inbound
// message from a member renews that member's single lease over all scions it
// holds here. The node only reclaims when the cluster membership directory
// has ALSO declared the holder dead, so quiet-but-alive members never lose
// references; without that gate silence alone deletes scions, which is what
// the lease ablation (experiments.LeaseAblation) shows. Scions taken into
// custody during a drain handoff (Pin) are exempt from expiry and released
// only when the drained holder's departure is final. The lease length is the
// caller's, in ticks.

// Renew marks the holder alive at tick now: any inbound traffic qualifies.
func (t *Table) Renew(holder ids.NodeID, now uint64) {
	p := t.peer(holder)
	p.heard, p.renewed = true, now
}

// LeaseValid reports whether the holder's lease of length lease covers tick
// now. A holder never heard from is granted defensively at now —
// reclamation requires positive evidence of silence spanning a full lease,
// not missing bookkeeping.
func (t *Table) LeaseValid(holder ids.NodeID, now, lease uint64) bool {
	p := t.peer(holder)
	if !p.heard {
		p.heard, p.renewed = true, now
		return true
	}
	return now-p.renewed <= lease
}

// Regrant re-arms a previously expired holder that returned with a higher
// incarnation, reporting whether the grant was fresh. Re-joining with a
// stale or equal incarnation does not resurrect the lease: the member must
// prove it restarted.
func (t *Table) Regrant(holder ids.NodeID, incarnation, now uint64) bool {
	p := t.peer(holder)
	if incarnation <= p.incarnation {
		return false
	}
	p.incarnation = incarnation
	p.heard, p.renewed = true, now
	return true
}

// Pin takes the scion (src, obj) into custody: a drain handoff transferred
// responsibility for it to this owner, so lease expiry must not touch it.
func (t *Table) Pin(src ids.NodeID, obj ids.ObjID) {
	p := t.peer(src)
	if p.custodial == nil {
		p.custodial = make(map[ids.ObjID]struct{})
	}
	p.custodial[obj] = struct{}{}
}

// ReleaseCustodial deletes every custodial scion held on behalf of holder —
// called when the drained holder's departure becomes final — and returns
// them in canonical order for journaling and sweep.
func (t *Table) ReleaseCustodial(holder ids.NodeID) []Scion {
	p := t.peer(holder)
	out := t.dropScions(holder, func(obj ids.ObjID) bool { _, pinned := p.custodial[obj]; return pinned })
	p.custodial = nil
	return out
}

// ExpireHolder deletes every non-custodial scion held for holder if — and
// only if — its lease of length lease has lapsed at tick now, returning the
// deletions in canonical order. Callers gate this on the membership
// directory declaring the holder dead; the lease is the second, independent
// safety condition.
func (t *Table) ExpireHolder(holder ids.NodeID, now, lease uint64) []Scion {
	if t.LeaseValid(holder, now, lease) {
		return nil
	}
	p := t.peers[holder]
	p.heard = false
	return t.dropScions(holder, func(obj ids.ObjID) bool { _, pinned := p.custodial[obj]; return !pinned })
}
