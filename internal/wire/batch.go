package wire

// Batch bundles several messages into one wire frame. The TCP transport's
// SendAll groups a burst of effects by peer and ships each peer's messages
// as a single Batch — one length-prefixed frame, one syscall —
// instead of one frame per CDM. Batches are a pure framing construct: the
// receiver unpacks and delivers the sub-messages individually, so the
// protocol layers never see them.
//
// Encoding: a count followed by the length-prefixed canonical encoding of
// each sub-message. Nested batches are rejected on decode — nothing
// legitimately produces them, and forbidding them bounds unpacking depth.
type Batch struct {
	Msgs []Message
}

// Kind implements Message.
func (*Batch) Kind() Kind { return KindBatch }

func (m *Batch) encode(buf []byte) []byte {
	buf = putUint(buf, uint64(len(m.Msgs)))
	bp := getEncBuf(64)
	scratch := (*bp)[:0]
	for _, sub := range m.Msgs {
		scratch = AppendEncode(scratch[:0], sub)
		buf = putUint(buf, uint64(len(scratch)))
		buf = append(buf, scratch...)
	}
	*bp = scratch
	putEncBuf(bp)
	return buf
}

func decodeBatch(r *reader) *Batch {
	n := r.count()
	m := &Batch{}
	if n > 0 && r.err == nil {
		m.Msgs = make([]Message, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		ln := r.count()
		if r.err != nil {
			break
		}
		if r.pos+ln > len(r.data) {
			r.fail("truncated batch element %d at offset %d (+%d)", i, r.pos, ln)
			break
		}
		sub := r.data[r.pos : r.pos+ln]
		r.pos += ln
		if ln > 0 && Kind(sub[0]) == KindBatch {
			r.fail("nested batch at element %d", i)
			break
		}
		msg, err := Decode(sub)
		if err != nil {
			r.fail("batch element %d: %v", i, err)
			break
		}
		m.Msgs = append(m.Msgs, msg)
	}
	return m
}
