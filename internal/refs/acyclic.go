package refs

import (
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

// TargetedStubSet is one NewSetStubs message and its destination: the full
// set of objects at To that this process still references. The message does
// not name its sender; the receiver learns it from the transport.
type TargetedStubSet struct {
	To   ids.NodeID
	Seq  uint64      // per-(sender,receiver) monotonic sequence number
	Objs []ids.ObjID // receiver-local objects still referenced, sorted
}

// GenerateTargeted builds one NewSetStubs message per peer process from the
// current stub table. It must be called after a local collection has
// recomputed the stub table (see lgc). A peer that has held a stub here is
// sent a set in every round from then on, an explicit empty one once its
// last stub is gone, so its scions from this process can be reclaimed: the
// repetition is what lets scion reclamation survive the loss of an empty
// set. A peer that only holds references into this process is sent none.
func (t *Table) GenerateTargeted() []TargetedStubSet { return t.generate(false) }

// GenerateChanged is GenerateTargeted for a collection that runs between two
// scheduled ones: a peer whose set equals the one last sent to it gets no
// message and its sequence number does not move. Loss tolerance stays with
// the scheduled rounds, which restate every set whether it changed or not.
func (t *Table) GenerateChanged() []TargetedStubSet { return t.generate(true) }

func (t *Table) generate(changedOnly bool) []TargetedStubSet {
	var out []TargetedStubSet
	for _, n := range t.names {
		p := t.peers[n]
		if !p.owed {
			continue
		}
		objs := t.StubObjs(n)
		fp := fingerprint(objs)
		if changedOnly && p.sent && p.lastSent == fp {
			continue
		}
		p.sent, p.lastSent = true, fp
		p.outSeq++
		out = append(out, TargetedStubSet{To: n, Seq: p.outSeq, Objs: objs})
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

// ApplyStubSet processes a NewSetStubs message received from the process
// from: every scion from it whose object is not in objs is deleted. Stale or
// duplicate messages (sequence number not larger than the last applied) are
// ignored. It returns the scions deleted, in canonical order. Only the
// sender's record is read, so the cost does not depend on other peers'
// scions.
func (t *Table) ApplyStubSet(from ids.NodeID, seq uint64, objs []ids.ObjID) []Scion {
	p := t.peer(from)
	if seq <= p.inSeq {
		return nil // stale or duplicate
	}
	p.inSeq = seq

	listed := objs
	if !ascending(listed) { // every sender here lists a sorted set; a foreign one may not
		listed = slices.Clone(listed)
		slices.Sort(listed)
		listed = slices.Compact(listed)
	}
	// The common case deletes nothing: every scion is listed.
	kept := 0
	for _, o := range listed {
		if _, ok := p.scions[o]; ok {
			kept++
		}
	}
	if kept == len(p.scions) {
		return nil
	}
	return t.dropScions(from, func(obj ids.ObjID) bool { _, ok := slices.BinarySearch(listed, obj); return !ok })
}

// ascending reports whether objs is strictly increasing: sorted, with no
// object listed twice.
func ascending(objs []ids.ObjID) bool {
	for i := 1; i < len(objs); i++ {
		if objs[i-1] >= objs[i] {
			return false
		}
	}
	return true
}

// SeqEntry is one persisted sequence-number record.
type SeqEntry struct {
	Node ids.NodeID
	Seq  uint64
}

// SeqState exports the protocol's sequence numbers for persistence, in
// canonical node order: outbound (last stub set sent per destination) and
// inbound (last applied per source). Sequence numbers MUST survive a
// process restart — a rebooted process restarting from sequence zero would
// have its fresh (authoritative) stub sets discarded as stale by peers.
func (t *Table) SeqState() (out, in []SeqEntry) {
	for _, n := range t.names {
		p := t.peers[n]
		if p.outSeq > 0 {
			out = append(out, SeqEntry{Node: n, Seq: p.outSeq})
		}
		if p.inSeq > 0 {
			in = append(in, SeqEntry{Node: n, Seq: p.inSeq})
		}
	}
	return out, in
}

// RestoreSeqState reinstates persisted sequence numbers; every outbound
// peer is owed a set again, so empty sets resume if stubs died with the
// crash.
func (t *Table) RestoreSeqState(out, in []SeqEntry) {
	for _, e := range out {
		p := t.peer(e.Node)
		p.outSeq, p.owed = e.Seq, true
	}
	for _, e := range in {
		t.peer(e.Node).inSeq = e.Seq
	}
}
