package node

import (
	"sort"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/refs"
	"dgc/internal/trace"
	"dgc/internal/wire"
)

// Elastic-membership integration: the machine inputs and effects that keep
// the gossip directory (internal/membership) and the holder-lease table
// (refs.HolderLeases) wired into the protocol core. Everything here is a
// no-op when Config.Membership is nil, so the deterministic simulator's
// static-directory behaviour — and its byte-identical fingerprints — are
// untouched.

// Members returns the directory in canonical order (nil when membership is
// disabled).
func (m *Machine) Members() []membership.Member {
	if m.memb == nil {
		return nil
	}
	return m.memb.Snapshot()
}

// MemberState returns the directory's state for node (zero when membership
// is disabled or the node is unknown).
func (m *Machine) MemberState(node ids.NodeID) membership.State {
	if m.memb == nil {
		return 0
	}
	return m.memb.State(node)
}

// AddMember seeds a peer into the directory as joining (static wiring, a
// join RPC). Gossip takes it from there.
func (m *Machine) AddMember(node ids.NodeID, addr string) error {
	if m.memb == nil {
		return m.errf("AddMember: membership disabled")
	}
	if tr := m.memb.SeedPeer(node, addr, m.clock); tr != nil {
		m.processMemberTransitions([]membership.Transition{*tr})
	}
	return nil
}

// SetSelfAddr records this node's advertised transport address, gossiped so
// joiners learn how to reach it.
func (m *Machine) SetSelfAddr(addr string) {
	if m.memb != nil {
		m.memb.SetSelfAddr(addr)
	}
}

// TakeAddrUpdates drains directory records whose transport address was
// learned or changed; the live driver reprograms its endpoint with them.
func (m *Machine) TakeAddrUpdates() []membership.Member {
	if m.memb == nil {
		return nil
	}
	return m.memb.TakeAddrUpdates()
}

// BeginDrain starts this node's voluntary departure. The directory record
// flips to draining (incarnation-bumped so it dominates concurrent
// suspicion), and every remote owner this node holds references into
// receives a LeaseHandoff taking those scions into custody. After
// DrainLinger ticks the node declares itself dead (departed) and the
// custodians release the handed-off scions through the normal deletion
// path, letting cycles through the former referents collect.
func (m *Machine) BeginDrain() error {
	if m.memb == nil {
		return m.errf("BeginDrain: membership disabled")
	}
	if m.memb.Draining() {
		return nil
	}
	if tr := m.memb.BeginDrain(m.clock); tr != nil {
		m.processMemberTransitions([]membership.Transition{*tr})
	}
	byOwner := make(map[ids.NodeID][]ids.ObjID)
	var owners []ids.NodeID
	for _, s := range m.table.Stubs() {
		o := s.Target.Node
		if o == m.id {
			continue
		}
		if _, ok := byOwner[o]; !ok {
			owners = append(owners, o)
		}
		byOwner[o] = append(byOwner[o], s.Target.Obj)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, o := range owners {
		objs := byOwner[o]
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		m.emit(trace.KindLeaseHandoff, "to=%s objs=%d sent", o, len(objs))
		m.send(o, &wire.LeaseHandoff{Holder: m.id, Objs: objs})
	}
	return nil
}

// observeMember feeds one inbound message into the failure detector and
// renews the sender's holder lease. Called at the top of HandleMessage.
func (m *Machine) observeMember(from ids.NodeID) {
	if m.memb == nil || from == m.id {
		return
	}
	m.leases.Renew(from, m.clock)
	if tr := m.memb.Observe(from, m.clock); tr != nil {
		m.processMemberTransitions([]membership.Transition{*tr})
	}
}

// membTick runs the membership side of one clock advance: failure-detector
// transitions, dead-holder lease expiry, and the periodic anti-entropy push.
func (m *Machine) membTick() {
	if m.memb == nil {
		return
	}
	m.processMemberTransitions(m.memb.Tick(m.clock))
	for _, mem := range m.memb.Snapshot() {
		if mem.Node == m.id || mem.State != membership.Dead {
			continue
		}
		m.reclaimScions(m.leases.ExpireHolder(mem.Node, m.clock), mem.Node, "lease-expired")
	}
	cfg := m.memb.Config()
	if cfg.GossipEvery > 0 && m.clock%cfg.GossipEvery == 0 {
		if peer, ok := m.memb.NextGossipPeer(); ok {
			m.sendGossip(peer, false)
		}
	}
}

// processMemberTransitions journals and reacts to directory state changes:
// custodial release when a drained holder's departure is final, and lease
// re-grant when a dead holder returns with a higher incarnation.
func (m *Machine) processMemberTransitions(trs []membership.Transition) {
	for _, tr := range trs {
		mem := tr.Member
		switch mem.State {
		case membership.Joining:
			m.emit(trace.KindMemberJoin, "node=%s inc=%d", mem.Node, mem.Incarnation)
		case membership.Alive:
			m.emit(trace.KindMemberAlive, "node=%s inc=%d prev=%s", mem.Node, mem.Incarnation, tr.Prev)
			if mem.Node != m.id && tr.Prev == membership.Dead {
				m.leases.Regrant(mem.Node, mem.Incarnation, m.clock)
			}
		case membership.Suspect:
			m.emit(trace.KindMemberSuspect, "node=%s inc=%d", mem.Node, mem.Incarnation)
		case membership.Draining:
			m.emit(trace.KindMemberDrain, "node=%s inc=%d", mem.Node, mem.Incarnation)
		case membership.Dead:
			m.emit(trace.KindMemberDead, "node=%s inc=%d prev=%s", mem.Node, mem.Incarnation, tr.Prev)
			if mem.Node != m.id {
				m.reclaimScions(m.leases.ReleaseCustodial(mem.Node), mem.Node, "drain-departed")
			}
		}
	}
}

// reclaimScions finalizes scions deleted by lease expiry or custodial
// release: selector cleanup and journal. The table deletion already
// happened inside HolderLeases through the normal DeleteScion path.
func (m *Machine) reclaimScions(scs []refs.Scion, holder ids.NodeID, reason string) {
	for _, sc := range scs {
		ref := ids.RefID{Src: sc.Src, Dst: ids.GlobalRef{Node: m.id, Obj: sc.Obj}}
		m.selector.Forget(ref)
		m.emit(trace.KindLeaseReclaim, "ref=%s holder=%s reason=%s", ref, holder, reason)
		m.emit(trace.KindScionDeleted, "ref=%s reason=%s", ref, reason)
	}
}

// maybePiggybackGossip rides a directory push on an already outbound
// envelope burst when the destination's last-seen version is stale. Gossip
// messages themselves never trigger another (each push records the version
// it carried, and the Kind check stops recursion).
func (m *Machine) maybePiggybackGossip(to ids.NodeID, msg wire.Message) {
	if m.memb == nil || to == m.id || msg.Kind() == wire.KindGossip {
		return
	}
	if m.membGossiped[to] == m.memb.Version() {
		return
	}
	m.sendGossip(to, false)
}

// sendGossip pushes the full directory to one peer. ack marks a reply sent
// because this node held strictly newer records; acks are never answered.
func (m *Machine) sendGossip(to ids.NodeID, ack bool) {
	snap := m.memb.Snapshot()
	recs := make([]wire.MemberRecord, len(snap))
	for i, mem := range snap {
		recs[i] = wire.MemberRecord{
			Node:        mem.Node,
			Addr:        mem.Addr,
			Incarnation: mem.Incarnation,
			State:       uint8(mem.State),
		}
	}
	m.membGossiped[to] = m.memb.Version()
	m.send(to, &wire.Gossip{Ack: ack, Members: recs})
}

// handleGossip merges a peer's directory push and answers (once) when this
// node holds strictly newer records.
func (m *Machine) handleGossip(from ids.NodeID, g *wire.Gossip) {
	if m.memb == nil {
		return
	}
	recs := make([]membership.Member, 0, len(g.Members))
	for _, r := range g.Members {
		recs = append(recs, membership.Member{
			Node:        r.Node,
			Addr:        r.Addr,
			Incarnation: r.Incarnation,
			State:       membership.State(r.State),
		})
	}
	reply := !g.Ack && m.memb.HasNewsFor(recs)
	m.processMemberTransitions(m.memb.Merge(recs, m.clock))
	if reply {
		m.sendGossip(from, true)
	}
}

// handleLeaseHandoff takes a draining holder's scions into custody: pinned
// against lease expiry until the holder's departure is final, then released
// through the normal deletion path (processMemberTransitions).
func (m *Machine) handleLeaseHandoff(msg *wire.LeaseHandoff) {
	if m.memb == nil {
		return
	}
	pinned := 0
	for _, obj := range msg.Objs {
		if m.table.Scion(msg.Holder, obj) == nil {
			continue
		}
		m.leases.Pin(msg.Holder, obj)
		pinned++
	}
	m.emit(trace.KindLeaseHandoff, "holder=%s objs=%d pinned=%d received", msg.Holder, len(msg.Objs), pinned)
}

// memberDeadEdge reports whether detection traffic along ref would route
// through a member the directory has declared dead.
func (m *Machine) memberDeadEdge(ref ids.RefID) bool {
	return m.memb != nil && m.memb.IsDead(ref.Dst.Node)
}

// abortDetectionMemberDead terminates a detection whose every outgoing edge
// routes through dead members, journaling the member-dead outcome dgcctl's
// follow loop keys on (relaunch after the holder's scions are reclaimed
// skips the dead edge entirely).
func (m *Machine) abortDetectionMemberDead(det core.DetectionID, traceID uint64) {
	if _, ok := m.inflight[det]; ok {
		m.detectionDone(det, "member-dead")
		return
	}
	m.emitT(trace.KindDetectionEnd, traceID, "det=%s/%d outcome=member-dead", det.Origin, det.Seq)
}

// filterDeadEdges strips a flush-pending CDM batch of edges and returns
// routing through dead members. A section whose detection still leaves via
// some live edge is silently narrowed; one with no live exit aborts.
func (m *Machine) filterDeadEdges(b *cdmBatcher) {
	if m.memb == nil {
		return
	}
	liveDet := make(map[core.DetectionID]struct{})
	var liveOrder, deadEdges []ids.RefID
	for _, edge := range b.order {
		if m.memberDeadEdge(edge) {
			deadEdges = append(deadEdges, edge)
			continue
		}
		liveOrder = append(liveOrder, edge)
		for _, s := range b.edges[edge].secs {
			liveDet[s.det] = struct{}{}
		}
	}
	if len(deadEdges) == 0 && len(b.retOrder) == 0 {
		return
	}
	for _, edge := range deadEdges {
		for _, s := range b.edges[edge].secs {
			if _, ok := liveDet[s.det]; ok {
				continue
			}
			m.abortDetectionMemberDead(s.det, s.trace)
			liveDet[s.det] = struct{}{} // abort a detection at most once
		}
		delete(b.edges, edge)
	}
	b.order = liveOrder
	var retOrder []ids.NodeID
	for _, origin := range b.retOrder {
		if m.memb.IsDead(origin) {
			m.emit(trace.KindBatchCDM, "to=%s sections=%d return dropped member-dead",
				origin, len(b.rets[origin]))
			delete(b.rets, origin)
			continue
		}
		retOrder = append(retOrder, origin)
	}
	b.retOrder = retOrder
}
