package refs

import (
	"cmp"
	"slices"

	"dgc/internal/ids"
)

// The NewSetStubs protocol (paper §1):
//
//	"Starting from local roots and scions, the LGC generates a new set of
//	 stubs each time it runs. This new set of stubs is then sent to remote
//	 processes (this message is called NewSetStubs); these processes, based
//	 on the set of stubs received, may conclude which scions are no longer
//	 reachable so that they can be safely deleted."
//
// Each message carries the COMPLETE current set of this process's stubs that
// target one remote process, together with a per-(sender, receiver) monotonic
// sequence number. Because messages are complete sets, the protocol tolerates
// message loss (the next message supersedes) and, with the sequence number,
// reordering and duplication (stale messages are ignored).

// StubSetMsg is the payload of one NewSetStubs message: the full set of
// objects at the receiver that the sender still references.
type StubSetMsg struct {
	From ids.NodeID  // sender (the process holding the stubs)
	Seq  uint64      // per-(sender,receiver) monotonic sequence number
	Objs []ids.ObjID // receiver-local objects still referenced, sorted
}

// AcyclicDGC implements the sender and receiver sides of the NewSetStubs
// protocol for one process.
type AcyclicDGC struct {
	table *Table

	// outSeq is the next sequence number per destination node.
	outSeq map[ids.NodeID]uint64
	// inSeq is the highest sequence number applied per source node.
	inSeq map[ids.NodeID]uint64
	// knownPeers remembers every node we have ever sent a stub set to, so
	// that a process whose last stub to a peer disappears still sends the
	// (empty) set that lets the peer drop its remaining scions — in every
	// scheduled round from then on: an empty set is tiny, and repeating it is
	// what makes scion reclamation tolerate message loss, where a single lost
	// empty set would otherwise leak the peer's scions permanently.
	knownPeers map[ids.NodeID]struct{}
	// lastSent fingerprints the set last sent to each destination, so an
	// off-schedule collection (GenerateChanged) can leave an unchanged set
	// unsaid. Updated by every send; not persisted — a restored process has
	// no entry and restates.
	lastSent map[ids.NodeID]uint64
}

// NewAcyclicDGC returns the acyclic collector state bound to a table.
func NewAcyclicDGC(table *Table) *AcyclicDGC {
	return &AcyclicDGC{
		table:      table,
		outSeq:     make(map[ids.NodeID]uint64),
		inSeq:      make(map[ids.NodeID]uint64),
		knownPeers: make(map[ids.NodeID]struct{}),
		lastSent:   make(map[ids.NodeID]uint64),
	}
}

// NotePeers records every node the process currently holds stubs to,
// guaranteeing each a stub-set message in the next generation round even if
// every such stub disappears before it. Callers must invoke this BEFORE a
// local collection deletes stubs, otherwise a peer whose last stub dies in
// the collection never learns about it and its scions leak.
func (a *AcyclicDGC) NotePeers() {
	for ref := range a.table.stubs {
		a.knownPeers[ref.Node] = struct{}{}
	}
}

// TargetedStubSet pairs a NewSetStubs message with its destination.
type TargetedStubSet struct {
	To  ids.NodeID
	Msg StubSetMsg
}

// GenerateTargeted builds one NewSetStubs message per peer process from the
// current stub table. It must be called after a local collection has
// recomputed the stub table (see lgc). A peer that has no stubs left here is
// sent an explicit empty set so its scions from this process can be
// reclaimed, in every round from then on: the repetition is what lets scion
// reclamation survive the loss of an empty set.
func (a *AcyclicDGC) GenerateTargeted() []TargetedStubSet { return a.generate(false) }

// GenerateChanged is GenerateTargeted for a collection that runs between two
// scheduled ones: a peer whose set equals the one last sent to it gets no
// message and its sequence number does not move. Loss tolerance stays with
// the scheduled rounds, which restate every set whether it changed or not.
func (a *AcyclicDGC) GenerateChanged() []TargetedStubSet { return a.generate(true) }

func (a *AcyclicDGC) generate(changedOnly bool) []TargetedStubSet {
	byNode := make(map[ids.NodeID][]ids.ObjID)
	for ref := range a.table.stubs {
		byNode[ref.Node] = append(byNode[ref.Node], ref.Obj)
	}
	for n := range byNode {
		a.knownPeers[n] = struct{}{}
	}
	nodes := make([]ids.NodeID, 0, len(a.knownPeers))
	for n := range a.knownPeers {
		nodes = append(nodes, n)
	}
	ids.SortNodeIDs(nodes)

	out := make([]TargetedStubSet, 0, len(nodes))
	for _, n := range nodes {
		objs := byNode[n]
		slices.Sort(objs)
		fp := fingerprint(objs)
		if last, sent := a.lastSent[n]; changedOnly && sent && last == fp {
			continue
		}
		a.lastSent[n] = fp
		a.outSeq[n]++
		out = append(out, TargetedStubSet{
			To:  n,
			Msg: StubSetMsg{From: a.table.Node(), Seq: a.outSeq[n], Objs: objs},
		})
	}
	return out
}

// fingerprint hashes a sorted object list (FNV-1a over whole words). Two
// different sets colliding would make GenerateChanged skip a changed set;
// the next scheduled round states it regardless.
func fingerprint(objs []ids.ObjID) uint64 {
	h := uint64(14695981039346656037)
	for _, o := range objs {
		h = (h ^ uint64(o)) * 1099511628211
	}
	return h
}

// ApplyStubSet processes a received NewSetStubs message: every scion from
// msg.From whose object is not listed is deleted. Stale or duplicate
// messages (sequence number not larger than the last applied) are ignored.
// It returns the scions deleted, in canonical order.
func (a *AcyclicDGC) ApplyStubSet(msg StubSetMsg) []Scion {
	if msg.Seq <= a.inSeq[msg.From] {
		return nil // stale or duplicate
	}
	a.inSeq[msg.From] = msg.Seq

	listed := make(map[ids.ObjID]struct{}, len(msg.Objs))
	for _, o := range msg.Objs {
		listed[o] = struct{}{}
	}
	var deleted []Scion
	for k, s := range a.table.scions {
		if k.Src != msg.From {
			continue
		}
		if _, ok := listed[k.Obj]; !ok {
			deleted = append(deleted, *s)
			a.table.DeleteScion(k.Src, k.Obj)
		}
	}
	slices.SortFunc(deleted, func(x, y Scion) int { return cmp.Compare(x.Obj, y.Obj) })
	return deleted
}

// SeqEntry is one persisted sequence-number record.
type SeqEntry struct {
	Node ids.NodeID
	Seq  uint64
}

// SeqState exports the protocol's sequence numbers for persistence, in
// canonical node order: outbound (next stub-set per destination) and
// inbound (last applied per source). Sequence numbers MUST survive a
// process restart — a rebooted process restarting from sequence zero would
// have its fresh (authoritative) stub sets discarded as stale by peers.
func (a *AcyclicDGC) SeqState() (out, in []SeqEntry) {
	collect := func(m map[ids.NodeID]uint64) []SeqEntry {
		nodes := make([]ids.NodeID, 0, len(m))
		for n := range m {
			nodes = append(nodes, n)
		}
		ids.SortNodeIDs(nodes)
		entries := make([]SeqEntry, 0, len(nodes))
		for _, n := range nodes {
			entries = append(entries, SeqEntry{Node: n, Seq: m[n]})
		}
		return entries
	}
	return collect(a.outSeq), collect(a.inSeq)
}

// RestoreSeqState reinstates persisted sequence numbers and re-registers
// every outbound peer (so empty sets resume if stubs died with the crash).
func (a *AcyclicDGC) RestoreSeqState(out, in []SeqEntry) {
	for _, e := range out {
		a.outSeq[e.Node] = e.Seq
		a.knownPeers[e.Node] = struct{}{}
	}
	for _, e := range in {
		a.inSeq[e.Node] = e.Seq
	}
}
