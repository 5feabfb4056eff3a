package wire

import (
	"cmp"
	"math"
	"slices"

	"dgc/internal/core"
	"dgc/internal/ids"
)

// BatchSection is one detection's slice of a BatchCDM: the detection
// identity, the reference it travels along and its algebra. Sections are
// independent — a receiver processes each exactly as it would a standalone
// CDM carrying the same along and algebra — so batching is a pure transport
// optimization.
type BatchSection struct {
	Det core.DetectionID
	// Along is the reference the section travels along (Along.Src is the
	// sender, Along.Dst.Node the receiver), exactly as CDM.Along. Zero in a
	// partial return, which travels to the detection's origin instead.
	Along ids.RefID
	alg   core.Alg // with CDM.alg's sharing contract
}

// NewBatchSection builds a section around an algebra (shared, not copied —
// the algebra must not be mutated afterwards).
func NewBatchSection(det core.DetectionID, along ids.RefID, alg core.Alg) BatchSection {
	return BatchSection{Det: det, Along: along, alg: alg}
}

// MergeAlgInto merges the section's algebra into a, exactly as
// CDM.MergeAlgInto.
func (s *BatchSection) MergeAlgInto(a core.Alg) (changed, conflict bool) { return a.Merge(s.alg) }

// BatchCDM is a multi-candidate cycle detection message: every detection
// section one input sends to the same node travels in one message instead of
// one CDM each, whatever reference each section travels along. On the wire
// the sections share a reference dictionary — the canonically-sorted union of
// every section's references and alongs, encoded once — and entries and
// alongs name references by dictionary index, so overlapping closures pay for
// each reference string once per message, not once per section.
//
// With Return set the message carries partial returns: the accumulated
// views of branches cut at the sender, traveling back to each section's
// detection origin; sections carry no along.
type BatchCDM struct {
	// Hops is the forwarding depth shared by the batch: the deepest of its
	// sections'.
	Hops uint32
	// Return marks partial returns bound for the detections' origin.
	Return bool
	// Sections holds one entry per (detection, along) pair. Never empty on
	// the wire: the decoder rejects zero-section batches.
	Sections []BatchSection

	// dict is the shared-dictionary form, built once by NewBatchCDM: sizing
	// the message for the transport and encoding it both read it. Nil on a
	// decoded message, which nothing sends on; re-encoding one flattens it
	// again.
	dict *core.Dict
}

// NewBatchCDM builds a batched detection message from sections
// (NewBatchSection), each of a forward message with its along set. The
// message, like its algebras, must not be mutated afterwards.
func NewBatchCDM(hops int, ret bool, sections []BatchSection) *BatchCDM {
	m := &BatchCDM{Hops: uint32(hops), Return: ret, Sections: sections}
	m.dict = m.flatten()
	return m
}

// Kind implements Message.
func (*BatchCDM) Kind() Kind { return KindBatchCDM }

// flatten computes the shared-dictionary form (core.NewDict: one integer
// sort of every reference occurrence).
func (m *BatchCDM) flatten() *core.Dict {
	d := core.NewDict(len(m.Sections), func(i int) (core.Alg, ids.RefID) {
		if m.Return {
			return m.Sections[i].alg, ids.RefID{}
		}
		return m.Sections[i].alg, m.Sections[i].Along
	})
	return &d
}

// flat returns the dictionary form: NewBatchCDM's, or a fresh one for a
// decoded message.
func (m *BatchCDM) flat() *core.Dict {
	if m.dict != nil {
		return m.dict
	}
	return m.flatten()
}

func (m *BatchCDM) encode(buf []byte) []byte {
	d := m.flat()
	buf = putUint(buf, uint64(m.Hops))
	buf = putBool(buf, m.Return)
	buf = putUint(buf, uint64(len(d.Refs)))
	for _, r := range d.Refs {
		buf = putRefID(buf, r)
	}
	buf = putUint(buf, uint64(len(m.Sections)))
	for i := range m.Sections {
		s := &m.Sections[i]
		buf = putNode(buf, s.Det.Origin)
		buf = putUint(buf, s.Det.Seq)
		if !m.Return {
			buf = putUint(buf, uint64(d.Extra[i]))
		}
		es := d.Section(i)
		buf = putUint(buf, uint64(len(es)))
		for _, e := range es {
			buf = putEntry(putUint(buf, uint64(e.Index)), e.Entry)
		}
	}
	return buf
}

// encodedSize returns len(m.encode(nil)) without writing bytes.
func (m *BatchCDM) encodedSize() int {
	d := m.flat()
	n := uvarintSize(uint64(m.Hops)) + 1 + uvarintSize(uint64(len(d.Refs)))
	for _, r := range d.Refs {
		n += refIDSize(r)
	}
	n += uvarintSize(uint64(len(m.Sections)))
	for i := range m.Sections {
		s := &m.Sections[i]
		n += nodeSize(s.Det.Origin) + uvarintSize(s.Det.Seq)
		if !m.Return {
			n += uvarintSize(uint64(d.Extra[i]))
		}
		es := d.Section(i)
		n += uvarintSize(uint64(len(es)))
		for _, e := range es {
			n += uvarintSize(uint64(e.Index)) + entrySize(e.Entry)
		}
	}
	return n
}

// decodeBatchCDM parses and validates a batch. The decoder enforces the
// canonical form the encoder produces — dictionary strictly sorted, every
// dictionary reference used by an entry or an along, section entries strictly
// ascending by index, at least one section, at least one entry per section,
// no (detection, along) pair twice — so any accepted input re-encodes
// byte-identically. One detection may travel along two references into the
// same node: that is two sections.
func decodeBatchCDM(r *reader) *BatchCDM {
	m := &BatchCDM{}
	hops := r.uint()
	if hops > math.MaxUint32 {
		r.fail("hops %d overflows uint32", hops)
	}
	m.Hops = uint32(hops)
	m.Return = r.bool()
	nd := r.count()
	dict := make([]ids.RefID, 0, min(nd, 1024))
	for i := 0; i < nd && r.err == nil; i++ {
		ref := r.refID()
		if r.err != nil {
			break
		}
		if i > 0 && !dict[i-1].Less(ref) {
			r.fail("batch dictionary not in canonical order")
			break
		}
		dict = append(dict, ref)
	}
	if r.err != nil {
		return m
	}
	used := make([]bool, len(dict))
	index := func(what string) int {
		idx := r.uint()
		if r.err == nil && idx >= uint64(len(dict)) {
			r.fail("%s index %d out of dictionary range %d", what, idx, len(dict))
		}
		if r.err != nil {
			return -1
		}
		used[idx] = true
		return int(idx)
	}
	ns := r.count()
	if ns == 0 && r.err == nil {
		r.fail("batch cdm with zero sections")
	}
	m.Sections = make([]BatchSection, 0, min(ns, 1024))
	// Every section's algebra is built into one entry array, sized for the
	// most entries the rest of the message can hold once each section's
	// header is paid for: origin, seq, along and entry count take a byte
	// each at least (a return has no along).
	header := 4
	if m.Return {
		header = 3
	}
	algs := core.NewAlgBuilder(min(ns, 1024), max(len(r.data)-r.pos-ns*header, 0)/minEntryBytes)
	for i := 0; i < ns && r.err == nil; i++ {
		s := BatchSection{Det: core.DetectionID{Origin: r.node(), Seq: r.uint()}}
		along := -1
		if !m.Return {
			if along = index("along"); along >= 0 {
				s.Along = dict[along]
			}
		}
		prev := -1
		s.alg = readAlg(r, &algs, func(int) ids.RefID {
			idx := index("entry ref")
			switch {
			case idx < 0:
				return ids.RefID{}
			case idx <= prev:
				r.fail("section entries not in canonical order")
			}
			prev = idx
			return dict[idx]
		})
		if r.err != nil {
			break
		}
		if s.alg.Len() == 0 {
			r.fail("batch section with zero entries")
			break
		}
		m.Sections = append(m.Sections, s)
	}
	if r.err == nil {
		for i, u := range used {
			if !u {
				r.fail("unused dictionary ref %d", i)
				break
			}
		}
	}
	if r.err == nil {
		// No (detection, along) pair twice: in sorted order a repeat sits
		// next to its first occurrence.
		order := make([]int32, 0, 32) // on the stack unless the batch is larger
		for i := range m.Sections {
			order = append(order, int32(i))
		}
		slices.SortFunc(order, func(a, b int32) int { return cmpSection(&m.Sections[a], &m.Sections[b]) })
		for i := 1; i < len(order); i++ {
			if s := &m.Sections[order[i]]; cmpSection(&m.Sections[order[i-1]], s) == 0 {
				r.fail("duplicate detection %s/%d along %s in batch", s.Det.Origin, s.Det.Seq, s.Along)
				break
			}
		}
	}
	return m
}

// cmpSection orders sections by detection, then along.
func cmpSection(a, b *BatchSection) int {
	switch {
	case a.Det.Origin != b.Det.Origin:
		return cmp.Compare(a.Det.Origin, b.Det.Origin)
	case a.Det.Seq != b.Det.Seq:
		return cmp.Compare(a.Det.Seq, b.Det.Seq)
	case a.Along.Less(b.Along):
		return -1
	case b.Along.Less(a.Along):
		return 1
	}
	return 0
}
