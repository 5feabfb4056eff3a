package wire

import "dgc/internal/ids"

// MemberRecord is one directory entry as it travels in a Gossip message:
// the flat wire twin of membership.Member (wire does not import membership,
// the node layer converts).
type MemberRecord struct {
	Node        ids.NodeID
	Addr        string
	Incarnation uint64
	State       uint8
}

// Gossip carries the sender's full membership directory, either piggybacked
// on regular protocol traffic or as a periodic anti-entropy push. Ack marks
// a reply sent because the receiver held strictly newer records; acks are
// never answered, bounding any exchange at two messages.
type Gossip struct {
	Ack     bool
	Members []MemberRecord
}

func (*Gossip) Kind() Kind { return KindGossip }

func (m *Gossip) encode(buf []byte) []byte {
	buf = putBool(buf, m.Ack)
	buf = putUint(buf, uint64(len(m.Members)))
	for _, r := range m.Members {
		buf = putNode(buf, r.Node)
		buf = putString(buf, r.Addr)
		buf = putUint(buf, r.Incarnation)
		buf = putUint(buf, uint64(r.State))
	}
	return buf
}

func (m *Gossip) encodedSize() int {
	n := 1 + uvarintSize(uint64(len(m.Members)))
	for _, r := range m.Members {
		n += nodeSize(r.Node) + uvarintSize(uint64(len(r.Addr))) + len(r.Addr) +
			uvarintSize(r.Incarnation) + uvarintSize(uint64(r.State))
	}
	return n
}

func decodeGossip(r *reader) *Gossip {
	var m Gossip
	m.Ack = r.bool()
	n := r.count()
	if n > 0 {
		m.Members = make([]MemberRecord, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var rec MemberRecord
		rec.Node = r.node()
		rec.Addr = r.string()
		rec.Incarnation = r.uint()
		s := r.uint()
		if r.err == nil && (s == 0 || s > 255) {
			r.fail("member state %d out of range", s)
			break
		}
		rec.State = uint8(s)
		m.Members = append(m.Members, rec)
	}
	return &m
}

// LeaseHandoff is sent by a draining holder to the owner of objects it
// holds references to: the owner takes the listed scions into custody
// (pinned against lease expiry) and releases them through the normal
// deletion path once the holder's departure is final. The holder is the
// sender.
type LeaseHandoff struct {
	Objs []ids.ObjID
}

func (*LeaseHandoff) Kind() Kind { return KindLeaseHandoff }

func (m *LeaseHandoff) encode(buf []byte) []byte {
	return putObjIDs(buf, m.Objs)
}

func (m *LeaseHandoff) encodedSize() int {
	n := uvarintSize(uint64(len(m.Objs)))
	for _, o := range m.Objs {
		n += uvarintSize(uint64(o))
	}
	return n
}

func decodeLeaseHandoff(r *reader) *LeaseHandoff {
	return &LeaseHandoff{Objs: r.objIDs()}
}
